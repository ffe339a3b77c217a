//! Host fingerprint and process memory. Wall times compare only between
//! runs with the same fingerprint.

use mwsj_core::obs::json::escape;

/// CPU model, available parallelism and the compiler that built the
/// benchmark.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub rustc: &'static str,
}

impl Fingerprint {
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": {}, \"nproc\": {}, \"rustc\": {}}}",
            escape(&self.cpu_model),
            self.nproc,
            escape(self.rustc)
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}
