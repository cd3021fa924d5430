//! The host record printed with every result: CPU count and model, the
//! AVX-512 sub-flags, the engine the kernels resolved to, and the commit.

use std::path::Path;

/// The processor brand string from CPUID leaves 0x8000_0002..=0x8000_0004.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports the highest extended leaf.
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let bytes: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
                .map(__cpuid)
                .flat_map(|r| [r.eax, r.ebx, r.ecx, r.edx])
                .flat_map(u32::to_le_bytes)
                .collect();
            return String::from_utf8_lossy(&bytes)
                .trim_matches(|c: char| c == '\0' || c.is_whitespace())
                .to_string();
        }
    }
    "unknown".to_string()
}

fn avx512_flags() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("f", std::arch::is_x86_feature_detected!("avx512f")),
            ("cd", std::arch::is_x86_feature_detected!("avx512cd")),
            ("bw", std::arch::is_x86_feature_detected!("avx512bw")),
            ("dq", std::arch::is_x86_feature_detected!("avx512dq")),
            ("vl", std::arch::is_x86_feature_detected!("avx512vl")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        ["f", "cd", "bw", "dq", "vl"]
            .iter()
            .map(|&f| (f, false))
            .collect()
    }
}

/// The checked-out commit from `.git` when there is one; otherwise an
/// FNV-1a digest of the sources the benchmark builds (`crates/` and this
/// package), which identifies the code the same way.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").ok();
    if let Some(head) = head {
        let head = head.trim();
        let resolved = match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok(),
            None => Some(head.to_string()),
        };
        if let Some(sha) = resolved {
            return sha.trim().to_string();
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "perfbench/Cargo.toml"] {
        collect(Path::new(root), &mut files);
    }
    if files.is_empty() {
        return "unknown".to_string();
    }
    files.sort();
    let mut h = crate::FNV_OFFSET;
    for f in &files {
        crate::fnv(&mut h, f.to_string_lossy().bytes());
        crate::fnv(&mut h, std::fs::read(f).unwrap_or_default());
    }
    format!("src-fnv64-{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        }
    }
}

/// The host record as one JSON object.
pub fn record() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags: Vec<String> = avx512_flags()
        .iter()
        .map(|(f, on)| format!("\"{f}\":{on}"))
        .collect();
    let engine = if gp_core::backends::engine().is_native() {
        "native"
    } else {
        "emulated"
    };
    format!(
        "{{\"host_cpus\":{cpus},\"cpu_model\":\"{}\",\"avx512\":{{{}}},\"engine\":\"{engine}\",\"commit\":\"{}\"}}",
        cpu_model().replace('"', "'"),
        flags.join(","),
        commit()
    )
}
