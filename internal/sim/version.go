package sim

// Version stamps the simulation semantics of the whole engine stack: the
// issue window and batching rules here, the DRAM timing kernel, the
// address map, the workload generators and every mechanism's behaviour.
// It exists for one purpose — content-addressed result caching
// (internal/resultcache): cached cell results are keyed on Version, so a
// bump orphans every previously stored result at once.
//
// Bump policy: increment Version whenever a change alters any simulated
// result — timing formulas, migration policy behaviour, trace generation,
// metric accounting — even when no config struct changed shape. Changes
// that are proven bit-identical by the differential suites (batching,
// decoded dispatch, zero-copy replay) do NOT require a bump; that proof is
// exactly what makes the cache safe across them. Mechanism- or
// spec-parameter changes do not require a bump either: parameters are
// fingerprinted into each cell key already. When in doubt, bump — a stale
// miss costs one re-simulation, a wrong hit corrupts published figures.
const Version = 1
