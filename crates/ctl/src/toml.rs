//! A deliberately small TOML-ish reader for topology declarations.
//!
//! The workspace has no network access, so rather than vendoring a
//! full TOML implementation the control plane reads the subset its
//! declarations actually use:
//!
//! * `[table.path]` headers (bare dotted segments),
//! * `key = value` entries — values are double-quoted strings, or
//!   bare tokens (numbers, booleans, words) taken verbatim,
//! * `#` comments (whole-line and trailing) and blank lines.
//!
//! Everything parses to strings; the declaration layer
//! ([`crate::decl`]) owns typing and validation. Duplicate table
//! headers and duplicate keys within a table are rejected — in a
//! fleet declaration a silent last-wins would hide real mistakes.

/// One `[header]` section and its entries, in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Dotted header path (`node.bu0.modules.builder`). The implicit
    /// root table (entries before any header) has an empty path.
    pub path: String,
    /// 1-based line of the header (0 for the root table).
    pub line: usize,
    /// `key = value` entries in file order, values unquoted.
    pub entries: Vec<(String, String)>,
}

impl Table {
    /// First value for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed document: tables in file order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Doc {
    /// All tables, root first when it has entries.
    pub tables: Vec<Table>,
}

impl Doc {
    /// Table lookup by exact dotted path.
    pub fn table(&self, path: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.path == path)
    }

    /// Tables whose path starts with `prefix.` (children at any depth).
    pub fn children<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a Table> {
        self.tables.iter().filter(move |t| {
            t.path.len() > prefix.len() + 1 && t.path.starts_with(prefix) && {
                t.path.as_bytes()[prefix.len()] == b'.'
            }
        })
    }
}

/// Parse failure, located by 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Offending line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// A bare (unquoted) value or header segment: no whitespace, quotes,
/// brackets or comment markers.
fn valid_bare(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| !c.is_whitespace() && !matches!(c, '"' | '[' | ']' | '#' | '='))
}

/// Parses one value: `"quoted"` or a bare token. Returns the value
/// and anything left after it (must be blank or a comment).
fn parse_value(raw: &str, line: usize) -> Result<String, ParseError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(end) = rest.find('"') else {
            return Err(err(line, "unterminated string"));
        };
        let tail = rest[end + 1..].trim();
        if !(tail.is_empty() || tail.starts_with('#')) {
            return Err(err(
                line,
                format!("trailing garbage after string: '{tail}'"),
            ));
        }
        return Ok(rest[..end].to_string());
    }
    let bare = match raw.find('#') {
        Some(pos) => raw[..pos].trim(),
        None => raw,
    };
    if !valid_bare(bare) {
        return Err(err(line, format!("bad value '{raw}' (quote strings)")));
    }
    Ok(bare.to_string())
}

/// Parses a document.
pub fn parse(text: &str) -> Result<Doc, ParseError> {
    let mut doc = Doc::default();
    let mut current = Table {
        path: String::new(),
        line: 0,
        entries: Vec::new(),
    };
    let flush = |t: &mut Table, doc: &mut Doc| {
        if !t.path.is_empty() || !t.entries.is_empty() {
            doc.tables.push(std::mem::replace(
                t,
                Table {
                    path: String::new(),
                    line: 0,
                    entries: Vec::new(),
                },
            ));
        }
    };
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(end) = rest.find(']') else {
                return Err(err(line_no, "missing ']' in table header"));
            };
            let tail = rest[end + 1..].trim();
            if !(tail.is_empty() || tail.starts_with('#')) {
                return Err(err(line_no, "trailing garbage after table header"));
            }
            let path = rest[..end].trim();
            if path.is_empty() || !path.split('.').all(valid_bare) {
                return Err(err(line_no, format!("bad table path '{path}'")));
            }
            if doc.tables.iter().any(|t| t.path == path) || current.path == path {
                return Err(err(line_no, format!("duplicate table [{path}]")));
            }
            flush(&mut current, &mut doc);
            current = Table {
                path: path.to_string(),
                line: line_no,
                entries: Vec::new(),
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(
                line_no,
                format!("expected 'key = value', got '{line}'"),
            ));
        };
        let key = key.trim();
        if !valid_bare(key) || !key.split('.').all(valid_bare) {
            return Err(err(line_no, format!("bad key '{key}'")));
        }
        if current.entries.iter().any(|(k, _)| k == key) {
            return Err(err(line_no, format!("duplicate key '{key}'")));
        }
        let value = parse_value(value, line_no)?;
        current.entries.push((key.to_string(), value));
    }
    flush(&mut current, &mut doc);
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_and_values() {
        let doc = parse(
            r#"
            # a topology
            top = "level"
            [cluster]
            name = "evb"   # trailing comment
            count = 3
            flag = true
            [node.bu0.modules.builder]
            factory = "builder"
            timeout_ms = 40
            "#,
        )
        .unwrap();
        assert_eq!(doc.tables.len(), 3);
        assert_eq!(doc.tables[0].path, "");
        assert_eq!(doc.tables[0].get("top"), Some("level"));
        let c = doc.table("cluster").unwrap();
        assert_eq!(c.get("name"), Some("evb"));
        assert_eq!(c.get("count"), Some("3"));
        assert_eq!(c.get("flag"), Some("true"));
        let m = doc.table("node.bu0.modules.builder").unwrap();
        assert_eq!(m.get("factory"), Some("builder"));
        assert_eq!(m.get("timeout_ms"), Some("40"));
    }

    #[test]
    fn children_iterates_prefix() {
        let doc = parse("[node.a]\nx=1\n[node.b]\nx=2\n[nodeish]\nx=3\n").unwrap();
        let kids: Vec<&str> = doc.children("node").map(|t| t.path.as_str()).collect();
        assert_eq!(kids, vec!["node.a", "node.b"]);
    }

    #[test]
    fn urls_and_lists_survive_quoting() {
        let doc = parse("[r]\nurl = \"tcp://127.0.0.1:0\"\nbus = \"bu0, bu1\"\n").unwrap();
        let t = doc.table("r").unwrap();
        assert_eq!(t.get("url"), Some("tcp://127.0.0.1:0"));
        assert_eq!(t.get("bus"), Some("bu0, bu1"));
    }

    #[test]
    fn rejects_malformations_with_line_numbers() {
        assert_eq!(parse("[broken\n").unwrap_err().line, 1);
        assert_eq!(parse("\nkey value\n").unwrap_err().line, 2);
        assert_eq!(parse("k = \"unterminated\n").unwrap_err().line, 1);
        assert_eq!(parse("[t]\nk = 1\nk = 2\n").unwrap_err().line, 3);
        assert_eq!(parse("[t]\nx=1\n[t]\ny=2\n").unwrap_err().line, 3);
        assert!(parse("k = two words\n").is_err());
    }
}
