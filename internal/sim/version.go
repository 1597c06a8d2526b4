package sim

// EngineVersion is the model salt for content-addressed run caching,
// and the only version value in a run's fingerprint. Every change to
// what any run simulates MUST bump it: event ordering rules, the
// engine's arithmetic (DurationOf rounding, the jitter RNG stream),
// the GPU device, network, fabric and router cost models, an app's
// workload or decomposition, a machine profile's parameters, and the
// constants inside scenario cells (a fabric taper, a search set, a
// fixed problem size). Otherwise cached figure points of the old model
// would be served as if they came from the new one. Pure performance
// work that keeps every output byte-identical (the lane/heap rewrite
// changed no timeline) must NOT bump it, so caches survive
// optimizations.
//
// internal/sweep/testdata/salts.txt records each salt with the digest
// of the goldens it produced, and TestSaltLedger fails when a golden
// changes under the same salt or the salt changes without a new line.
const EngineVersion = "gat-engine-1"
