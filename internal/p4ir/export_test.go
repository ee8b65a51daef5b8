package p4ir

// DecodeBinaryUnchecked is DecodeBinary without the closing Validate, for
// tests that decode programs whose references are deliberately broken.
var DecodeBinaryUnchecked = decodeBinary
