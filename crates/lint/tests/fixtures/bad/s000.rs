//@ path: crates/cache/src/fix.rs
//@ expect: S000 6
//@ expect: D001 7
//@ expect: S000 9
//@ expect: S000 10
// pfsim-lint: allow(D001)
use std::collections::HashMap;
// pfsim-lint: allow(S000) -- a suppression cannot excuse a broken one
// pfsim-lint: allow(D999)
// pfsim-lint: allow(D999) -- well formed, but D999 is not a registered lint
