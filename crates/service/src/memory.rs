//! What the process holds resident, and handing back what it freed.
//!
//! [`proc_status`] reads one line of `/proc/self/status`: the source of
//! the `rss_anon_bytes`, `rss_file_bytes`, `hwm_bytes` and `threads`
//! gauges, and of the tests that bound resident growth.
//! `release_freed_heap` asks the allocator to return the free pages of
//! its arenas to the OS; the server calls it after each acked `COMMIT`,
//! whose predecessor epoch's pages and catalog clone were just freed into
//! the committing thread's arena.

/// The number on `field`'s line of `/proc/self/status` (`field` without
/// its colon): kB for the `Vm*` and `Rss*` lines, a count for `Threads`.
/// `None` where the file or the line is absent (no procfs).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Return the allocator's free pages to the OS: glibc's `malloc_trim(0)`,
/// which walks every arena (the main one and each thread's), and a no-op
/// on any other target. It costs ~0.1 ms on the bench's `churn` graph, so
/// the server runs it after the `COMMIT` reply is flushed, never inside
/// the commit's latency.
pub(crate) fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and touches only the
        // allocator's own free lists, under each arena's lock.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_where_procfs_exists() {
        if std::fs::metadata("/proc/self/status").is_err() {
            return;
        }
        assert!(proc_status("VmHWM").is_some_and(|kb| kb > 0));
        assert!(proc_status("Threads").is_some_and(|n| n >= 1));
        // The colon is part of the match: a prefix of a field is not it.
        assert_eq!(proc_status("VmH"), None);
        assert_eq!(proc_status("NoSuchField"), None);
        release_freed_heap();
    }

    /// The process maps no shared libc and no dynamic loader.
    /// `.cargo/config.toml` links every binary of the workspace, this test
    /// binary included, statically against glibc, so the server's
    /// file-backed resident set is its own image and not most of libc's,
    /// libm's and ld.so's pages. `RUSTFLAGS` (or `CARGO_ENCODED_RUSTFLAGS`)
    /// in the environment replaces the config's flags and so fails this
    /// test; `CARGO_BUILD_RUSTFLAGS` does not, because cargo reads the
    /// config's target table before `build.rustflags`.
    #[test]
    fn no_shared_libc_is_mapped() {
        if !cfg!(all(target_os = "linux", target_env = "gnu")) {
            eprintln!("skipped: glibc is linked statically on linux-gnu only");
            return;
        }
        let Ok(maps) = std::fs::read_to_string("/proc/self/maps") else {
            eprintln!("skipped: no /proc/self/maps");
            return;
        };
        let shared: Vec<&str> = maps
            .lines()
            .filter(|line| line.contains("libc.so") || line.contains("ld-linux"))
            .collect();
        assert!(
            shared.is_empty(),
            "shared glibc mapped:\n{}",
            shared.join("\n")
        );
    }
}
