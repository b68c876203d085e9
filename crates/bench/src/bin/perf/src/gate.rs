//! The correctness gate. Every operation the benchmark attempts — a CLI
//! child, a serve request, a cross-check — is counted here, and a single
//! failed check makes the run exit non-zero.

use relogic_serve::json::{self, Json};

/// Members of a result object that hold error probabilities δ.
const DELTA_KEYS: [&str; 6] = [
    "delta",
    "propagation",
    "mean_delta",
    "max_delta",
    "delta_lo",
    "delta_hi",
];

/// Attempted and failed operation counts, with the first few failures.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Gate {
    /// Counts one attempted operation; an `Err` counts it failed.
    pub fn op(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = check {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(format!("{what}: {message}"));
            }
        }
    }

    /// Folds another gate (e.g. one client's) into this one.
    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// 0 when every attempted operation passed, 1 otherwise.
    pub fn exit_code(&self) -> u8 {
        u8::from(self.failed > 0 || self.attempted == 0)
    }
}

/// A δ is a probability. It is not bounded by ½: past a non-linear gate
/// the chance an output is wrong can exceed ½ (an AND of two signals that
/// are each wrong 40 % of the time is wrong 64 % of the time).
pub fn check_delta(delta: f64) -> Result<(), String> {
    if delta.is_finite() && (0.0..=1.0).contains(&delta) {
        Ok(())
    } else {
        Err(format!("delta {delta} outside [0, 1]"))
    }
}

/// Checks every δ in a result object, including nested objects.
pub fn check_result_deltas(result: &Json) -> Result<(), String> {
    let Json::Obj(members) = result else {
        return Err("result is not an object".into());
    };
    for (key, value) in members {
        if DELTA_KEYS.contains(&key.as_str()) {
            let values = match value {
                Json::Arr(items) => items.iter().collect(),
                other => vec![other],
            };
            for v in values {
                let d = v.as_f64().ok_or_else(|| format!("non-numeric `{key}`"))?;
                check_delta(d).map_err(|e| format!("`{key}`: {e}"))?;
            }
        } else if let Json::Arr(items) = value {
            for item in items.iter().filter(|i| matches!(i, Json::Obj(_))) {
                check_result_deltas(item)?;
            }
        }
    }
    Ok(())
}

/// The result with its `cache` member removed, encoded: the part of a
/// reply that must equal the in-process computation bit for bit.
pub fn without_cache(result: &Json) -> String {
    match result {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "cache")
                .cloned()
                .collect(),
        )
        .encode(),
        other => other.encode(),
    }
}

/// Parses one serve reply frame and returns its result: the frame must
/// say `ok:true` and every δ in it must be in range.
pub fn reply_result(line: &str) -> Result<Json, String> {
    let doc = json::parse(line.trim()).map_err(|e| format!("unparsable reply: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = doc.get("error").map_or_else(String::new, Json::encode);
        return Err(format!("reply not ok: {error}"));
    }
    let result = doc.get("result").ok_or("reply without a result")?;
    check_result_deltas(result)?;
    Ok(result.clone())
}

/// Bit-for-bit equality of two results, ignoring their `cache` members.
pub fn same_result(got: &Json, want: &Json) -> Result<(), String> {
    let (got, want) = (without_cache(got), without_cache(want));
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "reply differs from the in-process result at byte {at}: got …{} want …{}",
        around(&got, at),
        around(&want, at)
    ))
}

/// [`reply_result`], then — when `expected` is given — [`same_result`].
pub fn check_reply(line: &str, expected: Option<&Json>) -> Result<(), String> {
    let result = reply_result(line)?;
    expected.map_or(Ok(()), |want| same_result(&result, want))
}

/// Up to 60 bytes of `s` on each side of byte `at`.
fn around(s: &str, at: usize) -> &str {
    let mut lo = at.saturating_sub(60);
    let mut hi = (at + 60).min(s.len());
    while !s.is_char_boundary(lo) {
        lo -= 1;
    }
    while !s.is_char_boundary(hi) {
        hi += 1;
    }
    &s[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = r#"{"ok":true,"kind":"analyze","result":{"outputs":["y"],"points":[{"eps":0.1,"delta":[0.18]}],"cache":"hit"}}"#;

    fn expected() -> Json {
        json::parse(r#"{"outputs":["y"],"points":[{"eps":0.1,"delta":[0.18]}]}"#).unwrap()
    }

    #[test]
    fn a_corrupted_reply_fails_the_run() {
        let mut gate = Gate::default();
        gate.op("reply", check_reply(REPLY, Some(&expected())));
        assert_eq!(gate.exit_code(), 0);
        // One flipped digit in the δ: the bit-for-bit comparison catches it.
        let corrupted = REPLY.replace("0.18", "0.19");
        gate.op("reply", check_reply(&corrupted, Some(&expected())));
        assert_eq!((gate.attempted(), gate.failed()), (2, 1));
        assert_eq!(gate.exit_code(), 1);
        assert!(
            gate.messages()[0].contains("differs"),
            "{:?}",
            gate.messages()
        );
    }

    #[test]
    fn errors_and_out_of_range_deltas_fail() {
        let not_ok = r#"{"ok":false,"kind":"analyze","error":{"code":"timeout"}}"#;
        assert!(check_reply(not_ok, None).unwrap_err().contains("timeout"));
        assert!(check_reply(&REPLY.replace("0.18", "0.64"), None).is_ok());
        let big = REPLY.replace("0.18", "1.5");
        assert!(check_reply(&big, None).unwrap_err().contains("outside"));
        let nested = r#"{"ok":true,"result":{"front":[{"mean_delta":-0.1}]}}"#;
        assert!(check_reply(nested, None).is_err());
        assert!(check_reply("{", None).is_err());
    }

    #[test]
    fn an_empty_run_is_not_a_pass() {
        assert_eq!(Gate::default().exit_code(), 1);
    }
}
