//! Helpers outside the kernel basenames: no kernel fn lives here, so the
//! seeded `unwrap` surfaces only through the call graph from kernel code.

pub fn resolve_support(xs: &[u32]) -> u64 {
    deep_lookup(xs)
}

fn deep_lookup(xs: &[u32]) -> u64 {
    u64::from(*xs.first().unwrap())
}
