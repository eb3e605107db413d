//! Executive configuration and the key=value control-payload codec.

use crate::clock::Clock;
use crate::supervisor::SupervisionConfig;
use std::collections::HashMap;
use std::time::Duration;

/// Which buffer-pool scheme the executive uses (the paper's allocator
/// ablation, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocatorKind {
    /// Original scheme: pre-allocated ladder, linear scan, global lock.
    Simple,
    /// Optimized scheme: on-demand size-class table (default).
    #[default]
    Table,
}

/// Construction-time configuration of an [`crate::Executive`].
#[derive(Debug, Clone)]
pub struct ExecutiveConfig {
    /// Node (IOP) name, unique in the cluster.
    pub node: String,
    /// Buffer-pool scheme.
    pub allocator: AllocatorKind,
    /// Handler budget; exceeding it faults the device and notifies the
    /// fault listener (§4's misbehaving-handler discussion).
    pub watchdog: Option<Duration>,
    /// When `Some`, a `LinkSupervisor` heartbeats supervised peers on
    /// the timer wheel and evicts routes of peers that go Down.
    pub supervision: Option<SupervisionConfig>,
    /// The executive's time source. [`Clock::Wall`] (the default) is
    /// the real monotonic clock — bit-for-bit the historical
    /// behaviour. Simulations pass a shared [`Clock::Virtual`] so
    /// timers, heartbeats and event-builder re-pulls all run on
    /// manually-advanced time (DESIGN.md §16).
    pub clock: Clock,
}

impl Default for ExecutiveConfig {
    fn default() -> ExecutiveConfig {
        ExecutiveConfig {
            node: "node".to_string(),
            allocator: AllocatorKind::Table,
            watchdog: None,
            supervision: None,
            clock: Clock::Wall,
        }
    }
}

impl ExecutiveConfig {
    /// Named-node convenience constructor.
    pub fn named(node: &str) -> ExecutiveConfig {
        ExecutiveConfig {
            node: node.to_string(),
            ..ExecutiveConfig::default()
        }
    }
}

/// Encodes a key=value map as the line-oriented control payload used by
/// executive messages (deterministic: keys sorted).
pub fn encode_kv(map: &HashMap<String, String>) -> Vec<u8> {
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    let mut out = String::new();
    for k in keys {
        out.push_str(k);
        out.push('=');
        out.push_str(&map[k]);
        out.push('\n');
    }
    out.into_bytes()
}

/// Builds a kv payload from pairs.
pub fn kv(pairs: &[(&str, &str)]) -> Vec<u8> {
    let map: HashMap<String, String> = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    encode_kv(&map)
}

/// Parses a line-oriented key=value payload. Blank lines are skipped;
/// a line without `=` is an error.
pub fn parse_kv(payload: &[u8]) -> Result<HashMap<String, String>, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let mut map = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("line without '=': {line:?}"))?;
        map.insert(k.to_string(), v.to_string());
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_roundtrip() {
        let payload = kv(&[
            ("factory", "pingger"),
            ("name", "ping0"),
            ("param.peer", "0x20"),
        ]);
        let map = parse_kv(&payload).unwrap();
        assert_eq!(map["factory"], "pingger");
        assert_eq!(map["name"], "ping0");
        assert_eq!(map["param.peer"], "0x20");
    }

    #[test]
    fn encode_is_deterministic() {
        let a = kv(&[("b", "2"), ("a", "1")]);
        let b = kv(&[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(String::from_utf8(a).unwrap(), "a=1\nb=2\n");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_kv(b"no equals sign").is_err());
        assert!(parse_kv(&[0xFF, 0xFE]).is_err());
        assert!(parse_kv(b"").unwrap().is_empty());
    }

    #[test]
    fn values_may_contain_equals() {
        let map = parse_kv(b"url=tcp://h:1?q=2\n").unwrap();
        assert_eq!(map["url"], "tcp://h:1?q=2");
    }

    #[test]
    fn default_config() {
        let c = ExecutiveConfig::default();
        assert_eq!(c.allocator, AllocatorKind::Table);
        let n = ExecutiveConfig::named("ru0");
        assert_eq!(n.node, "ru0");
    }
}
