//! Operating-system counts read from `/proc`.
//!
//! Every reader returns `None` when the file is missing or does not
//! parse, and the metric built on it is then reported as `null` — a
//! sandbox without `/proc/self/io` must not fail the benchmark.

use std::path::Path;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI the product
/// supports (x86-64, aarch64); there is no libc here to ask.
pub const CLK_TCK: f64 = 100.0;

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `(utime, stime)` in ticks from the text of `/proc/<pid>/stat`. The
/// command name may itself contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Value of a `Key:   123 kB`-style line of a `/proc` status file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Process CPU time `(user, system)` in seconds, all threads,
/// including threads that have already exited.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let (u, s) = parse_stat_cpu(&read("/proc/self/stat")?)?;
    Some((u as f64 / CLK_TCK, s as f64 / CLK_TCK))
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_status_field(&read("/proc/self/status")?, "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// `read`- plus `write`-family system calls made so far (`syscr` +
/// `syscw` of `/proc/self/io`). Socket `send`/`recv` and `futex` are
/// not in this count; it is the part of the syscall load the kernel
/// reports without a tracer.
pub fn io_syscalls() -> Option<u64> {
    let io = read("/proc/self/io")?;
    Some(parse_status_field(&io, "syscr")? + parse_status_field(&io, "syscw")?)
}

fn task_dirs() -> Option<Vec<std::path::PathBuf>> {
    let entries = std::fs::read_dir("/proc/self/task").ok()?;
    Some(entries.filter_map(|e| Some(e.ok()?.path())).collect())
}

/// Live threads of this process.
pub fn threads() -> Option<u64> {
    task_dirs().map(|d| d.len() as u64)
}

/// Voluntary plus involuntary context switches summed over the live
/// threads.
pub fn ctx_switches() -> Option<u64> {
    let mut total = 0;
    for dir in task_dirs()? {
        // A thread may exit between the listing and the read.
        let Some(status) = read(dir.join("status")) else {
            continue;
        };
        total += parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + parse_status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some(total)
}

/// Kernel release string.
pub fn kernel_release() -> Option<String> {
    read("/proc/sys/kernel/osrelease").map(|s| s.trim().to_string())
}

/// True when an open file descriptor of this process links to a target
/// containing `needle` (an `io_uring` instance shows up as
/// `anon_inode:[io_uring]`).
pub fn has_fd_linking_to(needle: &str) -> Option<bool> {
    let entries = std::fs::read_dir("/proc/self/fd").ok()?;
    Some(
        entries.filter_map(Result::ok).any(|e| {
            std::fs::read_link(e.path()).is_ok_and(|t| t.to_string_lossy().contains(needle))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    173 29 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some((173, 29)));
        assert_eq!(parse_stat_cpu("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu(""), None);
    }

    #[test]
    fn status_fields_parse_and_tolerate_absence() {
        let status = "Name:\tbench\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(7)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        assert_eq!(parse_status_field("VmHWM: lots kB", "VmHWM"), None);
        // `syscr: 12` style (no tab) parses the same way.
        assert_eq!(
            parse_status_field("syscr: 12\nsyscw: 30\n", "syscw"),
            Some(30)
        );
    }

    #[test]
    fn missing_files_read_as_none() {
        assert_eq!(read("/proc/self/no-such-file"), None);
        assert_eq!(read("/nonexistent/dir/stat"), None);
    }

    #[test]
    fn live_readers_work_on_this_host_or_return_none() {
        if let Some((u, s)) = cpu_seconds() {
            assert!(u >= 0.0 && s >= 0.0);
        }
        if let Some(n) = threads() {
            assert!(n >= 1);
        }
        if let Some(rss) = peak_rss_mib() {
            assert!(rss > 0.0);
        }
        assert_ne!(
            has_fd_linking_to("no such link target anywhere"),
            Some(true)
        );
    }
}
