//! Workspace-anchored artifact paths.
//!
//! Several binaries (`lab`, `trace_run`, `guard_ablation`, `labd`) write
//! artifacts that must land in the *workspace*, not wherever the process
//! happens to run. This module is the single home for that anchoring: one
//! walk from the compiled-in manifest dir to the workspace root
//! ([`workspace_root`]), and [`results_dir`] built from it.

use std::path::{Path, PathBuf};

/// Environment variable overriding the results directory.
pub const RESULTS_ENV: &str = "UASN_RESULTS_DIR";

/// The workspace root: the *outermost* ancestor of this crate's manifest
/// directory that contains a `Cargo.toml` (the workspace root, not the
/// crate root). `None` only if no ancestor has a `Cargo.toml` — a build
/// tree so unusual callers should fall back to cwd-relative paths.
pub fn workspace_root() -> Option<PathBuf> {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .last()
        .map(Path::to_path_buf)
}

/// Resolves where result artifacts are written: [`RESULTS_ENV`] wins;
/// otherwise `<workspace root>/results`; `results/` relative to the cwd as
/// a last resort.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os(RESULTS_ENV) {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    workspace_root()
        .map(|root| root.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_the_outermost_manifest() {
        let root = workspace_root().expect("built inside a workspace");
        assert!(root.join("Cargo.toml").is_file());
        // The bench crate's own manifest is *inside* the root, not at it.
        assert_ne!(root, Path::new(env!("CARGO_MANIFEST_DIR")));
    }

    #[test]
    fn derived_paths_share_the_anchor() {
        let root = workspace_root().expect("root");
        // results_dir honours the env override; without it, same anchor.
        if std::env::var_os(RESULTS_ENV).is_none() {
            assert_eq!(results_dir(), root.join("results"));
        }
    }
}
