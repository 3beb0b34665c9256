//! Result output: a small JSON value type (no serde offline), the stamp
//! that ties a row to the machine and inputs that produced it, and the
//! files under `benchmark/out/`.

use std::fmt;
use std::path::PathBuf;
use std::process::Command;

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `{"value": v, "unit": u}` — one metric of a result line.
    pub fn metric(value: f64, unit: &str) -> Json {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // Every digit as measured; JSON has no NaN or infinity.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {value}", Json::str(key.as_str()))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// First line a command prints, or `"unknown"` when it cannot run (the
/// driver's checkout, for one, is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    let package = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // git must not look for a repository above the checkout's root.
    let ceiling = package.parent().and_then(|root| root.parent());
    Command::new(program)
        .args(args)
        .current_dir(package)
        .env("GIT_CEILING_DIRECTORIES", ceiling.unwrap_or(package))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit, compiler and core count of this run.
pub fn stamp(cores: usize) -> Json {
    Json::obj([
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        ("nproc", Json::Int(cores as u64)),
    ])
}

/// Write `value` to `benchmark/out/<file>`; returns the path.
pub fn write_out(file: &str, value: &Json) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, format!("{value}\n"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj([
                    ("latency_ms", Json::metric(1.2034, "ms")),
                    ("setup_s", Json::metric(0.8127, "s")),
                ]),
            ),
        ]);
        assert_eq!(
            line.to_string(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_escape_and_non_finite_numbers_become_null() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(
            Json::Arr(vec![Json::Null, Json::Num(0.5)]).to_string(),
            "[null, 0.5]"
        );
    }

    #[test]
    fn stamp_names_compiler_and_cores() {
        let Json::Obj(fields) = stamp(2) else {
            panic!("stamp is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["commit", "rustc", "nproc"]);
    }
}
