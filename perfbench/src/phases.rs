//! One phase vocabulary across both set-up/apply pipelines.
//!
//! The one-subdomain-per-rank pipeline (`spmd.rs`) and the partitioned one
//! (`recovery.rs`, which `dd-serve` runs on) label the same work with
//! different trace phases. The benchmark reports every phase metric under
//! the `spmd.rs` names, so a refactor that deletes one pipeline is
//! measured under unchanged metric names.

/// The reported phase names. `sync` holds the traffic a pipeline emits
/// before it names its first phase (the set-up entry barrier), which lands
/// in the caller's phase: `init` on a fresh world, `serve-setup` inside
/// `dd-serve`.
pub const NAMES: [&str; 7] = [
    "factorization",
    "deflation",
    "assembly",
    "e-factorization",
    "e-solve",
    "solve",
    "sync",
];

/// Names of the set-up phases, for the set-up message counters.
pub const SETUP: [&str; 5] = [
    "factorization",
    "deflation",
    "assembly",
    "e-factorization",
    "sync",
];

enum Pat {
    Exact(&'static str),
    Prefix(&'static str),
}

const RULES: [(Pat, &str); 14] = [
    (Pat::Exact("factorization"), "factorization"),
    (Pat::Exact("recovery-adopt"), "factorization"),
    (Pat::Exact("deflation"), "deflation"),
    (Pat::Exact("recovery-deflation"), "deflation"),
    (Pat::Prefix("assembly:"), "assembly"),
    (Pat::Exact("recovery-assembly"), "assembly"),
    // e-factorization and e-factorization-dist
    (Pat::Prefix("e-factorization"), "e-factorization"),
    (Pat::Prefix("recovery-e-factorization"), "e-factorization"),
    // e-solve-dist (the redundant coarse solve records no phase of its own)
    (Pat::Prefix("e-solve"), "e-solve"),
    (Pat::Prefix("recovery-e-solve"), "e-solve"),
    (Pat::Exact("solve"), "solve"),
    (Pat::Exact("serve-apply"), "solve"),
    (Pat::Exact("init"), "sync"),
    (Pat::Exact("serve-setup"), "sync"),
];

/// Every reported name a trace phase maps to (exactly one when the
/// vocabulary is sound).
pub fn matches(phase: &str) -> Vec<&'static str> {
    RULES
        .iter()
        .filter(|(p, _)| match p {
            Pat::Exact(s) => phase == *s,
            Pat::Prefix(s) => phase.starts_with(s),
        })
        .map(|&(_, name)| name)
        .collect()
}

/// The reported name of a trace phase, if exactly one rule maps it.
pub fn map(phase: &str) -> Option<&'static str> {
    match matches(phase).as_slice() {
        [one] => Some(one),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_pipelines_share_names() {
        let pairs = [
            ("factorization", "recovery-adopt"),
            ("deflation", "recovery-deflation"),
            ("assembly:gather", "recovery-assembly"),
            ("e-factorization-dist", "recovery-e-factorization-dist"),
            ("e-factorization", "recovery-e-factorization"),
            ("e-solve-dist", "recovery-e-solve-dist"),
            ("solve", "serve-apply"),
        ];
        for (spmd, multi) in pairs {
            assert_eq!(map(spmd), map(multi), "{spmd} vs {multi}");
            assert!(map(spmd).is_some(), "{spmd} unmapped");
        }
    }

    #[test]
    fn every_rule_targets_a_reported_name() {
        for (_, name) in &RULES {
            assert!(NAMES.contains(name), "{name} is not a reported name");
        }
        for name in SETUP {
            assert!(NAMES.contains(&name));
        }
    }

    #[test]
    fn unknown_phases_stay_unmapped() {
        assert_eq!(map("serve-solve"), None);
        assert_eq!(map(""), None);
    }
}
