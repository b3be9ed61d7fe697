package checkpoint

// The codec entry points, for the external test package.
var (
	EncodeSnapshot = encodeSnapshot
	EncodeDelta    = encodeDelta
	DecodeSnapshot = decodeSnapshot
	DecodeDelta    = decodeDelta
)
