package cellstore

// ModelFingerprint identifies the model sources: the SHA-256 over the path
// and content of every non-test .go file in the module outside cmd/,
// examples/, scripts/ and perfbench/, this file excepted. Every stored cell
// is addressed under it, so an edit to the model orphans the old entries
// instead of serving them. TestModelFingerprint fails when it is stale;
// regenerate it with
//
//	go test ./internal/cellstore -run TestModelFingerprint -update
const ModelFingerprint = "c5a7f0dbce05b953cfdfefc1c667cb65ff40962c7ca4b7803b28284d0bd1c478"
