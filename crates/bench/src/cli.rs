//! Shared command-line plumbing for the `src/bin` targets: [`results_dir`]
//! resolves the *workspace* results directory regardless of the invocation
//! cwd, so running a bin from a crate subdirectory never scatters CSVs
//! around the tree. Figure sweeps go through the `lab` bin
//! (`lab run --figures <id>`).

pub use crate::paths::{results_dir, RESULTS_ENV};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_the_workspace_root_results() {
        // Ignores the cwd entirely: the path is derived from the compiled-in
        // manifest dir (or the env override), never from where the binary
        // happens to run.
        let dir = results_dir();
        assert!(dir.ends_with("results"), "{}", dir.display());
        assert!(
            !dir.parent().unwrap().as_os_str().is_empty(),
            "anchored, not bare cwd-relative: {}",
            dir.display()
        );
    }
}
