//! The benchmark's own tests: a smoke-size run of every workload prints
//! every metric `BENCHMARK.json` names, with its unit, and passes its
//! correctness gate; an injected fault fails the gate.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Output};

/// A minimal JSON value, enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text:?}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                    } else {
                        self.eat(b'}');
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                    } else {
                        self.eat(b']');
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not needed here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("number {text:?}: {e}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Runs the benchmark at smoke size.
fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--scale",
            "0.01",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

/// The result line of a run.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    Json::parse(last)
}

fn assert_metrics(workload: &str, trace: bool) {
    let bench = benchmark_json();
    let out = run(workload, trace, &[]);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let r = result(&out);
    let keys: Vec<&String> = r.obj().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(r.get("correct"), &Json::Bool(true));
    assert!(r.get("attempted").num() >= 1.0);
    assert_eq!(r.get("failed").num(), 0.0);
    let metrics = r.get("metrics").obj();
    let declared = bench
        .get(if trace { "per_layer" } else { "end_to_end" })
        .arr();
    assert_eq!(metrics.len(), declared.len(), "{workload}: metric count");
    for m in declared {
        let name = m.get("name").str();
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            got.get("unit").str(),
            m.get("unit").str(),
            "{workload}: unit of {name}"
        );
        let value = got.get("value").num();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if !trace {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }
    }
}

fn workloads() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in workloads() {
        assert_metrics(&w, false);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in workloads() {
        assert_metrics(&w, true);
    }
}

#[test]
fn traced_run_reports_the_shares_each_workload_exists_for() {
    let share = |workload: &str, name: &str| {
        let out = run(workload, true, &[]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        result(&out).get("metrics").get(name).get("value").num()
    };
    assert!(share("aligned_saturate", "shard.publish_share") > 0.0);
    assert!(share("paced_push", "shard.publish_share") > 0.0);
    assert!(share("posts_durable", "shard.checkpoint_share") > 0.0);
}

#[test]
fn a_flipped_score_bit_fails_the_gate() {
    for w in workloads() {
        let out = run(&w, false, &["--fault", "flip-score-bit"]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{w}: a flipped bit must fail the run"
        );
        assert_eq!(result(&out).get("correct"), &Json::Bool(false));
    }
}

#[test]
fn a_dropped_push_batch_fails_the_gate() {
    let out = run("paced_push", false, &["--fault", "drop-push"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a dropped push must fail the run"
    );
    let r = result(&out);
    assert_eq!(r.get("correct"), &Json::Bool(false));
    assert!(r.get("failed").num() >= 1.0);
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seed"][..], &[][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
