//! The run manifest stamped into every output: enough to reproduce the
//! run from one command (seed, workload parameters, config hash, source
//! revision, host core count, tracing on or off).

use std::path::Path;

use crate::json::Json;

/// Seed reserved for confirming a claimed gain after the change was
/// developed against other seeds. Tuning on it spends it.
pub const HELDOUT_SEED: u64 = 0x5EED_D5A1_2018;

#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    pub workload: String,
    pub seed: u64,
    pub heldout_seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// FNV-1a of the protocol and network configuration's `Debug` text.
    pub config_hash: String,
    /// Workload parameters, name → value.
    pub params: Vec<(String, Json)>,
    /// `git rev-parse HEAD`, or `"none"` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a over the workspace's manifests and Rust sources, so a run
    /// from an exported tree still names the code it measured.
    pub source_hash: String,
    pub cores: usize,
}

impl Manifest {
    pub fn to_json(&self) -> Json {
        let mut params = Json::obj();
        for (k, v) in &self.params {
            params.push(k, v.clone());
        }
        let mut o = Json::obj();
        o.push("workload", self.workload.as_str())
            .push("seed", self.seed)
            .push("heldout_seed", self.heldout_seed)
            .push("seconds", self.seconds)
            .push("trace", self.trace)
            .push("config_hash", self.config_hash.as_str())
            .push("params", params)
            .push("git_rev", self.git_rev.as_str())
            .push("source_hash", self.source_hash.as_str())
            .push("cores", self.cores);
        o
    }

    /// Reads a manifest back from a span dump or a result log.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn from_json(v: &Json) -> Result<Manifest, String> {
        let str_of = |k: &str| match v.get(k) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("manifest field `{k}` missing or not a string")),
        };
        let int_of = |k: &str| match v.get(k) {
            Some(Json::Int(i)) => Ok(*i),
            _ => Err(format!("manifest field `{k}` missing or not an integer")),
        };
        let params = match v.get("params") {
            Some(Json::Obj(fields)) => fields.clone(),
            _ => return Err("manifest field `params` missing".into()),
        };
        Ok(Manifest {
            workload: str_of("workload")?,
            seed: int_of("seed")?,
            heldout_seed: int_of("heldout_seed")?,
            seconds: int_of("seconds")?,
            trace: matches!(v.get("trace"), Some(Json::Bool(true))),
            config_hash: str_of("config_hash")?,
            params,
            git_rev: str_of("git_rev")?,
            source_hash: str_of("source_hash")?,
            cores: int_of("cores")? as usize,
        })
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Hex FNV-1a of a configuration's `Debug` rendering.
pub fn config_hash(parts: &[&dyn std::fmt::Debug]) -> String {
    let text: String = parts.iter().map(|p| format!("{p:?}")).collect();
    format!("{:016x}", fnv1a(text.as_bytes(), FNV_OFFSET))
}

/// The checkout's git revision, or `"none"`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// Hash of every `*.rs` and `Cargo.toml` under `crates/`, plus the root
/// manifest and lock file, visited in sorted path order.
pub fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = FNV_OFFSET;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h = fnv1a(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
                h,
            );
            h = fnv1a(&bytes, h);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json_text() {
        let m = Manifest {
            workload: "faults_128".into(),
            seed: u64::MAX - 1,
            heldout_seed: HELDOUT_SEED,
            seconds: 10,
            trace: true,
            config_hash: config_hash(&[&("lan", 1.5)]),
            params: vec![
                ("members".into(), Json::Int(128)),
                ("loss".into(), Json::Num(0.005)),
            ],
            git_rev: "none".into(),
            source_hash: "0123456789abcdef".into(),
            cores: 2,
        };
        let text = m.to_json().render();
        let back = Manifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        assert_eq!(config_hash(&[&1u8, &"a"]), config_hash(&[&1u8, &"a"]));
        assert_ne!(config_hash(&[&1u8]), config_hash(&[&2u8]));
        assert_eq!(fnv1a(b"", FNV_OFFSET), FNV_OFFSET);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn from_json_reports_missing_fields() {
        assert!(Manifest::from_json(&Json::obj()).is_err());
    }
}
