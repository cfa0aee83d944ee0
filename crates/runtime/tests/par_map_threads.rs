//! `par_map_with` runs on the solver's parked helper threads, so repeated
//! maps reuse the same threads instead of spawning fresh ones. This is
//! the only test in its binary: a map running concurrently in the same
//! process would claim helpers of its own and add thread ids.

use haxconn_runtime::par_map_with;
use std::collections::HashSet;
use std::thread::{self, ThreadId};

#[test]
fn par_map_with_reuses_its_threads() {
    let items: Vec<usize> = (0..64).collect();
    let mut ids: HashSet<ThreadId> = HashSet::new();
    for call in 0..100 {
        let seen = par_map_with(&items, 2, || (), |_, &i| (i, thread::current().id()));
        assert!(
            seen.iter().map(|s| s.0).eq(items.iter().copied()),
            "call {call}"
        );
        ids.extend(seen.into_iter().map(|s| s.1));
    }
    assert!(
        ids.len() <= 2,
        "{} distinct threads over 100 maps",
        ids.len()
    );
}
