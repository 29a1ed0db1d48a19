//! Every printed metric name is legal, and the printed names are exactly
//! the ones `BENCHMARK.json` lists.

use dve_perfbench::metrics::{valid_name, Report, END_TO_END, PER_LAYER};
use dve_perfbench::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The string values of `"key": "..."` in `text`, in order.
fn values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// The part of `text` from the `section` key to the next top-level list
/// key (the three lists hold no nested lists).
fn section<'a>(text: &'a str, section: &str) -> &'a str {
    let keys = ["\"workloads\":", "\"end_to_end\":", "\"per_layer\":"];
    let start = text
        .find(&format!("\"{section}\":"))
        .unwrap_or_else(|| panic!("{section} in BENCHMARK.json"));
    let end = keys
        .iter()
        .filter_map(|k| text.find(k))
        .filter(|&i| i > start)
        .min()
        .unwrap_or(text.len());
    &text[start..end]
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let b = benchmark_json();
    for (name, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let s = section(&b, name);
        let listed: Vec<(&str, &str)> = values(s, "name")
            .into_iter()
            .zip(values(s, "unit"))
            .collect();
        assert_eq!(values(s, "name").len(), values(s, "unit").len(), "{name}");
        assert_eq!(listed, list.to_vec(), "{name}");
    }
    assert_eq!(values(section(&b, "workloads"), "name"), WORKLOADS);
}

#[test]
fn result_lines_print_exactly_the_listed_names() {
    let mut rep = Report::default();
    for (name, _) in END_TO_END {
        rep.set(name, 1.5);
    }
    rep.attempted = 3;
    for (trace, list) in [(false, END_TO_END), (true, PER_LAYER)] {
        let line = rep.json_line(trace);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"),
            "{line}"
        );
        assert!(line.ends_with("}}"));
        assert_eq!(line.matches("{\"value\": ").count(), list.len());
        for (name, unit) in list {
            assert!(valid_name(name), "{name}");
            let entry = format!("\"{name}\": {{\"value\": ");
            let i = line
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} printed"));
            let rest = &line[i + entry.len()..];
            let (value, rest) = rest.split_once(", ").expect("value then unit");
            assert!(value.parse::<f64>().is_ok(), "{name}: {value}");
            assert!(
                rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                "{name}"
            );
        }
    }
}

#[test]
fn name_rule_rejects_illegal_names() {
    for bad in ["", "a b", "x/y", "_lead", "é"] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    assert!(valid_name("coherence.served_frac.l1"));
}
