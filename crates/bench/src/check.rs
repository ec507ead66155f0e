//! One schema-driven check for every `BENCH_*.json` file.
//!
//! A BENCH file names its schema in its own `"schema"` tag. [`check`]
//! parses the file with [`Json::parse`], looks the tag up, validates the
//! declared top-level fields and row columns, then applies the schema's
//! cross-field rule. `bench_summary --check PATH` runs it in CI on every
//! committed and freshly written BENCH file.

use emst_analysis::json::Json;

/// The declarations of one schema. Each is a space-separated list of
/// `name` (a number ≥ 0) or `name:kind`, where kind is `int` (an integer
/// ≥ 0), `pos` (a number > 0), `frac` (a number in [0, 1]), `zero` (a
/// violation or error count that must be 0), `str`, `str?` (a string or
/// null), `a|b` (one of these strings) or `pass` (an object whose `pass`
/// is true: a guard recorded as passing).
struct Schema {
    /// Required top-level fields, in groups so versions can share them.
    head: &'static [&'static str],
    /// Top-level fields checked only when present.
    optional: &'static str,
    /// Columns every row carries; empty for a file without `rows`.
    rows: &'static str,
    /// Cross-field rule over the whole document.
    rule: fn(&Json) -> Result<(), String>,
}

const SERVICE: &str = "clients:int requests:int n:int protocol:str cold_ratio:frac \
    warm_keys:int wall_s rps:pos p50_ms p99_ms cache_hits:int cache_misses:int \
    cache_hit_rate:frac cache_evictions:int responses_2xx:int responses_4xx:int \
    responses_5xx:zero";

fn schema(tag: &str) -> Option<Schema> {
    Some(match tag {
        "bench_core/v1" => Schema {
            head: &["seed:int reps:int"],
            // A --quick run measures neither guard's sizes.
            optional: "guard:pass flatness:pass",
            rows: "protocol:str n:int mean_ms best_ms nodes_per_s messages:int best_msgs_per_s",
            rule: |_| Ok(()),
        },
        "fault_sweep/v2" => Schema {
            head: &["seed:int trials:int"],
            optional: "",
            rows: "protocol:str n:int p completed:frac repaired:frac weight_ratio energy \
                energy_x repaired_energy repair_attempts drops retries timeouts \
                degraded_stage:str?",
            rule: |_| Ok(()),
        },
        "bench_churn/v1" => Schema {
            head: &["seed:int trials:int epochs:int violations:zero incremental_win:pass"],
            optional: "",
            rows: "n:int rate strategy:incremental|recompute epochs:int bootstrap_energy \
                maintenance_energy energy_per_round messages rounds edges_added edges_removed \
                violations:zero",
            rule: |_| Ok(()),
        },
        "bench_service/v1" => Schema {
            head: &[SERVICE],
            optional: "",
            rows: "",
            rule: latency_rule,
        },
        // v2 adds the backoff-aware load generator's retry accounting.
        "bench_service/v2" => Schema {
            head: &[SERVICE, "retries:int turnaways:int"],
            optional: "",
            rows: "",
            rule: latency_rule,
        },
        "bench_awake/v1" => Schema {
            head: &["seed:int trials:int lowawake_win:pass"],
            optional: "",
            rows: "n:int protocol:str awake_total awake_max energy messages rounds",
            rule: awake_rule,
        },
        _ => return None,
    })
}

/// Checks the field `decl` declares on `obj`; an absent field fails only
/// when it is `required`.
fn field(obj: &Json, decl: &str, required: bool) -> Result<(), String> {
    let (key, kind) = decl.split_once(':').unwrap_or((decl, "num"));
    let Some(v) = obj.get(key) else {
        return if required {
            Err(format!("missing field {key:?}"))
        } else {
            Ok(())
        };
    };
    let x = v.as_f64();
    let ok = match kind {
        // The parser already rejects non-finite literals.
        "num" => x.is_some_and(|x| x >= 0.0),
        "int" => v.as_u64().is_some(),
        "pos" => x.is_some_and(|x| x > 0.0),
        "frac" => x.is_some_and(|x| (0.0..=1.0).contains(&x)),
        "zero" => x == Some(0.0),
        "str" => v.as_str().is_some(),
        "str?" => v.as_str().is_some() || *v == Json::Null,
        "pass" => v.get("pass").and_then(Json::as_bool) == Some(true),
        one_of => v
            .as_str()
            .is_some_and(|s| one_of.split('|').any(|o| o == s)),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("field {key:?} is {v:?}, want {kind}"))
    }
}

/// Validates a BENCH document against the schema its own `"schema"` tag
/// names. Returns the tag (and row count), or what is wrong.
pub fn check(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let tag = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema tag")?;
    let schema = schema(tag).ok_or(format!("unknown schema {tag:?}"))?;
    for decl in schema
        .head
        .iter()
        .flat_map(|group| group.split_whitespace())
    {
        field(&doc, decl, true)?;
    }
    for decl in schema.optional.split_whitespace() {
        field(&doc, decl, false)?;
    }
    let mut what = tag.to_string();
    if !schema.rows.is_empty() {
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
        if rows.is_empty() {
            return Err("missing or empty rows array".into());
        }
        for (i, row) in rows.iter().enumerate() {
            for decl in schema.rows.split_whitespace() {
                field(row, decl, true).map_err(|e| format!("row {i}: {e}"))?;
            }
        }
        what += &format!(" ({} rows)", rows.len());
    }
    (schema.rule)(&doc)?;
    Ok(what)
}

fn num(obj: &Json, key: &str) -> f64 {
    obj.get(key)
        .and_then(Json::as_f64)
        .expect("declared numeric field")
}

fn latency_rule(doc: &Json) -> Result<(), String> {
    let (p50, p99) = (num(doc, "p50_ms"), num(doc, "p99_ms"));
    if p50 <= p99 {
        Ok(())
    } else {
        Err(format!("p50_ms {p50} exceeds p99_ms {p99}"))
    }
}

/// The `awake_max` of `protocol`'s row at the largest measured n.
fn awake_max_at_largest(doc: &Json, protocol: &str) -> Result<f64, String> {
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .expect("declared rows");
    let largest = rows.iter().map(|r| num(r, "n")).fold(0.0, f64::max);
    let is = |r: &&Json| {
        num(r, "n") == largest && r.get("protocol") == Some(&Json::Str(protocol.into()))
    };
    let row = rows
        .iter()
        .find(is)
        .ok_or(format!("no {protocol} row at n={largest}"))?;
    Ok(num(row, "awake_max"))
}

/// The low-awake pin, re-derived from the rows: at the largest measured
/// n, `ghs_lowawake` keeps its worst node awake for fewer rounds than
/// `ghs_modified`.
fn awake_rule(doc: &Json) -> Result<(), String> {
    let low = awake_max_at_largest(doc, "ghs_lowawake")?;
    let ghs = awake_max_at_largest(doc, "ghs_modified")?;
    if low < ghs {
        Ok(())
    } else {
        Err(format!(
            "low-awake pin broken: awake_max {low} is not below ghs {ghs}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILES: [&str; 5] = [
        "BENCH_core.json",
        "BENCH_faults.json",
        "BENCH_churn.json",
        "BENCH_service.json",
        "BENCH_awake.json",
    ];

    fn committed(file: &str) -> String {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    }

    /// Replaces the value of `key` on the first line containing `on`; an
    /// empty `value` renames the key instead, so the field goes missing.
    fn set(text: &str, on: &str, key: &str, value: &str) -> String {
        let line = text.lines().find(|l| l.contains(on)).expect("marker line");
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat).expect("key on marker line") + pat.len();
        let end = line[start..]
            .find([',', '}'])
            .map_or(line.len(), |e| start + e);
        let edited = match value {
            "" => line.replacen(&pat, &format!("\"{key}_gone\": "), 1),
            _ => format!("{}{value}{}", &line[..start], &line[end..]),
        };
        text.replacen(line, &edited, 1)
    }

    /// `(file, marker, key, value)`: each edit of a committed file must
    /// fail the check.
    const EDITS: &[(&str, &str, &str, &str)] = &[
        (
            "BENCH_core.json",
            "\"schema\"",
            "schema",
            "\"bench_core/v9\"",
        ),
        ("BENCH_faults.json", "\"schema\"", "schema", ""),
        ("BENCH_faults.json", "\"protocol\"", "weight_ratio", ""),
        ("BENCH_faults.json", "\"protocol\"", "drops", "\"many\""),
        ("BENCH_faults.json", "\"protocol\"", "retries", "-1.0"),
        ("BENCH_faults.json", "\"protocol\"", "energy", "1e999"),
        ("BENCH_faults.json", "\"protocol\"", "energy", "NaN"),
        ("BENCH_faults.json", "\"protocol\"", "degraded_stage", "3"),
        ("BENCH_core.json", "\"mean_ms\"", "messages", "2.5"),
        ("BENCH_core.json", "\"guard\"", "pass", "false"),
        ("BENCH_core.json", "\"flatness\"", "pass", "false"),
        ("BENCH_churn.json", "\"violations\": 0,", "violations", "2"),
        ("BENCH_churn.json", "\"strategy\"", "violations", "1"),
        ("BENCH_churn.json", "\"strategy\"", "strategy", "\"lazy\""),
        // Regression pin: `incremental_win.pass` is read, not skipped.
        ("BENCH_churn.json", "\"incremental_win\"", "pass", "false"),
        ("BENCH_awake.json", "\"lowawake_win\"", "pass", "false"),
        // Regression pin: a `"pass": true` elsewhere in the file does not
        // stand in for `lowawake_win.pass`.
        (
            "BENCH_awake.json",
            "\"lowawake_win\"",
            "pass",
            "false, \"x\": {\"pass\": true}",
        ),
        ("BENCH_awake.json", "\"ghs_lowawake\"", "awake_total", ""),
        ("BENCH_service.json", "\"p50_ms\"", "p50_ms", "1e6"),
        (
            "BENCH_service.json",
            "\"responses_5xx\"",
            "responses_5xx",
            "1",
        ),
        ("BENCH_service.json", "\"rps\"", "rps", "0"),
        (
            "BENCH_service.json",
            "\"cache_hit_rate\"",
            "cache_hit_rate",
            "1.5",
        ),
        ("BENCH_service.json", "\"retries\"", "retries", ""),
    ];

    #[test]
    fn committed_files_pass_and_every_edit_fails() {
        for file in FILES {
            let text = committed(file);
            check(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(check(&text[..text.len() / 2]).is_err(), "{file}: truncated");
            if let Some(at) = text.find("\"rows\": [") {
                let empty = format!("{}\"rows\": []\n}}\n", &text[..at]);
                assert!(check(&empty).is_err(), "{file}: empty rows");
            }
        }
        for &(file, on, key, value) in EDITS {
            let edited = set(&committed(file), on, key, value);
            assert!(check(&edited).is_err(), "{file}: {key} = {value:?} passed");
        }
    }

    #[test]
    fn awake_pin_is_rederived_from_the_rows() {
        let text = committed("BENCH_awake.json");
        let doc = Json::parse(&text).unwrap();
        let ghs = awake_max_at_largest(&doc, "ghs_modified").unwrap();
        let n = doc.get("lowawake_win").and_then(|w| w.get("n")).unwrap();
        let on = format!(
            "\"n\": {}, \"protocol\": \"ghs_lowawake\"",
            n.as_u64().unwrap()
        );
        for tied_or_worse in [ghs, ghs + 1.0] {
            let edited = set(&text, &on, "awake_max", &format!("{tied_or_worse:?}"));
            assert!(check(&edited).is_err(), "awake_max {tied_or_worse} passed");
        }
    }
}
