//! Fixture: reachability through recursion. Direct recursion
//! (`countdown`) and a mutual cycle (`even`/`odd`, with the Io seed in
//! `odd`): a walk rooted inside either must terminate and visit each
//! function once.

pub fn countdown(n: u32) -> u32 {
    if n == 0 {
        return 0;
    }
    let _scratch = vec![n];
    countdown(n - 1)
}

pub fn even(n: u32) -> bool {
    if n == 0 {
        return true;
    }
    odd(n - 1)
}

pub fn odd(n: u32) -> bool {
    let _probe = std::fs::read("probe").unwrap_or_default();
    if n == 0 {
        return false;
    }
    even(n - 1)
}
