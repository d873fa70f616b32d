package wire

// DecodeFast exposes DecodeResult's single pass, so the tests can tell which
// path an input took.
var DecodeFast = decodeFast
