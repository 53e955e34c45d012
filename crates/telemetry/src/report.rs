//! Run-report renderer: turns a JSONL event log into a per-phase summary.
//!
//! Span events are rolled up hierarchically by their `/`-joined path, so the
//! report shows e.g. `ea.search` with `ea.generation` indented beneath it
//! and `supernet.evaluate` beneath that, each with call counts and total
//! wall time. Dedicated sections decode the pipeline-specific spans:
//! evals/sec per EA generation, per-shrink-stage quality stats, and cache
//! hit rates derived from `*.hits` / `*.misses` counter pairs.

use std::collections::HashMap;

use crate::event::{parse_line, Event, EventKind, FieldValue};

/// Aggregate for one span path.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Full `/`-joined path.
    pub path: String,
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall time across them, microseconds.
    pub total_us: u64,
}

/// One EA generation decoded from an `ea.generation` span.
#[derive(Debug, Clone)]
pub struct GenerationRow {
    /// Generation index (0 = initial population).
    pub gen: u64,
    /// Candidate evaluations performed.
    pub evals: u64,
    /// Wall time, microseconds.
    pub dur_us: u64,
}

/// One progressive-shrinking stage decoded from a `shrink.stage` span.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage index.
    pub stage: u64,
    /// Layers decided in this stage.
    pub layers: u64,
    /// Mean / min / max of the sampled subspace qualities, when recorded.
    pub q_mean: Option<f64>,
    /// Minimum sampled quality.
    pub q_min: Option<f64>,
    /// Maximum sampled quality.
    pub q_max: Option<f64>,
    /// Wall time, microseconds.
    pub dur_us: u64,
}

/// A decoded, aggregated run report. Build with [`RunReport::from_events`]
/// or [`RunReport::from_jsonl`], render with [`RunReport::render`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Total events decoded.
    pub events: usize,
    /// Span count.
    pub spans: usize,
    /// Distinct thread indices observed.
    pub threads: usize,
    /// Last timestamp seen, microseconds since the telemetry epoch.
    pub wall_us: u64,
    /// Per-path span aggregates, in first-completion order.
    pub span_aggs: Vec<SpanAgg>,
    /// EA generations in order.
    pub generations: Vec<GenerationRow>,
    /// Shrink stages in order.
    pub stages: Vec<StageRow>,
    /// Final counter totals by key.
    pub counters: Vec<(String, u64)>,
    /// Final gauge values by key.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries by key: (count, mean, min, max).
    pub hists: Vec<(String, u64, f64, f64, f64)>,
}

fn field<'a>(event: &'a Event, key: &str) -> Option<&'a FieldValue> {
    event.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

impl RunReport {
    /// Builds a report from already-decoded events.
    pub fn from_events(events: &[Event]) -> RunReport {
        let mut report = RunReport {
            events: events.len(),
            ..RunReport::default()
        };
        let mut agg_index: HashMap<String, usize> = HashMap::new();
        let mut threads: Vec<u64> = Vec::new();
        for event in events {
            if !threads.contains(&event.thread) {
                threads.push(event.thread);
            }
            report.wall_us = report.wall_us.max(event.ts_us);
            match event.kind {
                EventKind::Span => {
                    report.spans += 1;
                    let dur = event.dur_us.unwrap_or(0);
                    report.wall_us = report.wall_us.max(event.ts_us);
                    let idx = *agg_index.entry(event.path.clone()).or_insert_with(|| {
                        report.span_aggs.push(SpanAgg {
                            path: event.path.clone(),
                            count: 0,
                            total_us: 0,
                        });
                        report.span_aggs.len() - 1
                    });
                    let agg = &mut report.span_aggs[idx];
                    agg.count += 1;
                    agg.total_us += dur;
                    if event.name == "ea.generation" {
                        report.generations.push(GenerationRow {
                            gen: field(event, "gen").and_then(|v| v.as_u64()).unwrap_or(0),
                            evals: field(event, "evals").and_then(|v| v.as_u64()).unwrap_or(0),
                            dur_us: dur,
                        });
                    }
                    if event.name == "shrink.stage" {
                        report.stages.push(StageRow {
                            stage: field(event, "stage").and_then(|v| v.as_u64()).unwrap_or(0),
                            layers: field(event, "layers").and_then(|v| v.as_u64()).unwrap_or(0),
                            q_mean: field(event, "q_mean").and_then(|v| v.as_f64()),
                            q_min: field(event, "q_min").and_then(|v| v.as_f64()),
                            q_max: field(event, "q_max").and_then(|v| v.as_f64()),
                            dur_us: dur,
                        });
                    }
                }
                EventKind::Counter => {
                    if let Some(total) = event.value.as_ref().and_then(|v| v.as_u64()) {
                        upsert(&mut report.counters, &event.name, total);
                    }
                }
                EventKind::Gauge => {
                    if let Some(value) = event.value.as_ref().and_then(|v| v.as_f64()) {
                        upsert(&mut report.gauges, &event.name, value);
                    }
                }
                EventKind::Hist => {
                    let count = field(event, "count").and_then(|v| v.as_u64()).unwrap_or(0);
                    let mean = field(event, "mean").and_then(|v| v.as_f64()).unwrap_or(0.0);
                    let min = field(event, "min").and_then(|v| v.as_f64()).unwrap_or(0.0);
                    let max = field(event, "max").and_then(|v| v.as_f64()).unwrap_or(0.0);
                    match report.hists.iter_mut().find(|(k, ..)| k == &event.name) {
                        Some(slot) => *slot = (event.name.clone(), count, mean, min, max),
                        None => report
                            .hists
                            .push((event.name.clone(), count, mean, min, max)),
                    }
                }
                EventKind::Mark => {}
            }
        }
        report.threads = threads.len();
        report.generations.sort_by_key(|g| g.gen);
        report.stages.sort_by_key(|s| s.stage);
        report
    }

    /// Parses a JSONL log (validating every line against schema v1) and
    /// builds the report. Fails with the 1-based line number on bad input.
    pub fn from_jsonl(text: &str) -> Result<RunReport, String> {
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let event = parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            events.push(event);
        }
        Ok(RunReport::from_events(&events))
    }

    /// Cache hit rates derived from `<prefix>.hits` / `<prefix>.misses`
    /// counter pairs, as `(prefix, hits, misses, rate)`.
    pub fn cache_rates(&self) -> Vec<(String, u64, u64, f64)> {
        let mut rates = Vec::new();
        for (key, hits) in &self.counters {
            let Some(prefix) = key.strip_suffix(".hits") else {
                continue;
            };
            let misses = self
                .counters
                .iter()
                .find(|(k, _)| k == &format!("{prefix}.misses"))
                .map(|(_, v)| *v)
                .unwrap_or(0);
            let total = hits + misses;
            let rate = if total == 0 {
                0.0
            } else {
                *hits as f64 / total as f64
            };
            rates.push((prefix.to_string(), *hits, misses, rate));
        }
        rates
    }

    /// Renders the fixed-width per-phase summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: &str| {
            out.push_str(line);
            out.push('\n');
        };
        push(
            &mut out,
            &format!(
                "== telemetry run report (schema v1) ==\nevents {}   spans {}   threads {}   wall {:.3}s",
                self.events,
                self.spans,
                self.threads,
                self.wall_us as f64 / 1e6
            ),
        );

        // Hierarchical phase rollup: tree over `/`-separated paths, children
        // indented beneath parents, siblings in first-completion order.
        push(&mut out, "\n-- phases --");
        push(
            &mut out,
            &format!(
                "{:<44} {:>7} {:>12} {:>12}",
                "span", "count", "total_ms", "mean_ms"
            ),
        );
        let ordered = self.tree_order();
        for agg in &ordered {
            let depth = agg.path.matches('/').count();
            let label = format!(
                "{}{}",
                "  ".repeat(depth),
                agg.path.rsplit('/').next().unwrap_or(&agg.path)
            );
            push(
                &mut out,
                &format!(
                    "{:<44} {:>7} {:>12.3} {:>12.3}",
                    label,
                    agg.count,
                    agg.total_us as f64 / 1e3,
                    agg.total_us as f64 / 1e3 / agg.count.max(1) as f64,
                ),
            );
        }

        if !self.generations.is_empty() {
            push(&mut out, "\n-- EA generations --");
            push(
                &mut out,
                &format!(
                    "{:>5} {:>7} {:>12} {:>12}",
                    "gen", "evals", "time_ms", "evals/s"
                ),
            );
            for row in &self.generations {
                let secs = row.dur_us as f64 / 1e6;
                let rate = if secs > 0.0 {
                    row.evals as f64 / secs
                } else {
                    0.0
                };
                push(
                    &mut out,
                    &format!(
                        "{:>5} {:>7} {:>12.3} {:>12.1}",
                        row.gen,
                        row.evals,
                        row.dur_us as f64 / 1e3,
                        rate
                    ),
                );
            }
        }

        if !self.stages.is_empty() {
            push(&mut out, "\n-- shrink stages --");
            push(
                &mut out,
                &format!(
                    "{:>5} {:>7} {:>9} {:>9} {:>9} {:>12}",
                    "stage", "layers", "q_mean", "q_min", "q_max", "time_ms"
                ),
            );
            let fmt_q = |q: Option<f64>| match q {
                Some(q) => format!("{q:.4}"),
                None => "-".to_string(),
            };
            for row in &self.stages {
                push(
                    &mut out,
                    &format!(
                        "{:>5} {:>7} {:>9} {:>9} {:>9} {:>12.3}",
                        row.stage,
                        row.layers,
                        fmt_q(row.q_mean),
                        fmt_q(row.q_min),
                        fmt_q(row.q_max),
                        row.dur_us as f64 / 1e3
                    ),
                );
            }
        }

        let rates = self.cache_rates();
        if !rates.is_empty() {
            push(&mut out, "\n-- cache hit rates --");
            for (prefix, hits, misses, rate) in rates {
                push(
                    &mut out,
                    &format!(
                        "{prefix:<32} {:>6.1}%  (hits {hits}, misses {misses})",
                        rate * 100.0
                    ),
                );
            }
        }

        if !self.gauges.is_empty() {
            push(&mut out, "\n-- gauges --");
            for (key, value) in &self.gauges {
                push(&mut out, &format!("{key:<32} {value:>14.6}"));
            }
        }

        if !self.hists.is_empty() {
            push(&mut out, "\n-- histograms --");
            push(
                &mut out,
                &format!(
                    "{:<32} {:>7} {:>11} {:>11} {:>11}",
                    "key", "count", "mean", "min", "max"
                ),
            );
            for (key, count, mean, min, max) in &self.hists {
                push(
                    &mut out,
                    &format!("{key:<32} {count:>7} {mean:>11.4} {min:>11.4} {max:>11.4}"),
                );
            }
        }

        if !self.counters.is_empty() {
            push(&mut out, "\n-- counters --");
            for (key, total) in &self.counters {
                push(&mut out, &format!("{key:<32} {total:>12}"));
            }
        }
        out
    }

    /// Orders span aggregates depth-first: each parent before its children,
    /// siblings by first completion. Parents complete *after* children, so
    /// raw event order would list leaves first.
    fn tree_order(&self) -> Vec<SpanAgg> {
        // first-seen rank per path
        let rank: HashMap<&str, usize> = self
            .span_aggs
            .iter()
            .enumerate()
            .map(|(i, a)| (a.path.as_str(), i))
            .collect();
        let mut ordered: Vec<SpanAgg> = self.span_aggs.clone();
        // Sort key: the sequence of (sibling rank) along the path, so a
        // subtree stays contiguous under its parent. Missing intermediate
        // paths (parent span never closed) fall back to their child's rank.
        let key_for = |path: &str| -> Vec<usize> {
            let mut key = Vec::new();
            let mut prefix = String::new();
            for seg in path.split('/') {
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(seg);
                key.push(*rank.get(prefix.as_str()).unwrap_or(&usize::MAX));
            }
            key
        };
        ordered.sort_by_key(|a| key_for(&a.path));
        ordered
    }
}

fn upsert<T: Copy>(list: &mut Vec<(String, T)>, key: &str, value: T) {
    match list.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => list.push((key.to_string(), value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, dur_us: u64, fields: Vec<(String, FieldValue)>) -> Event {
        Event {
            kind: EventKind::Span,
            ts_us: 0,
            thread: 0,
            name: path.rsplit('/').next().unwrap().to_string(),
            path: path.to_string(),
            dur_us: Some(dur_us),
            value: None,
            fields,
        }
    }

    #[test]
    fn rollup_nests_children_under_parents() {
        // children complete before parents, as in a real log
        let events = vec![
            span("ea.search/ea.generation/supernet.evaluate", 10, vec![]),
            span(
                "ea.search/ea.generation",
                30,
                vec![
                    ("gen".to_string(), FieldValue::U64(0)),
                    ("evals".to_string(), FieldValue::U64(8)),
                ],
            ),
            span("ea.search", 50, vec![]),
        ];
        let report = RunReport::from_events(&events);
        let order: Vec<String> = report.tree_order().into_iter().map(|a| a.path).collect();
        assert_eq!(
            order,
            vec![
                "ea.search".to_string(),
                "ea.search/ea.generation".to_string(),
                "ea.search/ea.generation/supernet.evaluate".to_string(),
            ]
        );
        assert_eq!(report.generations.len(), 1);
        assert_eq!(report.generations[0].evals, 8);
        let rendered = report.render();
        assert!(rendered.contains("ea.generation"));
        assert!(rendered.contains("EA generations"));
    }

    #[test]
    fn cache_rates_pair_hits_and_misses() {
        let mut report = RunReport::default();
        report.counters.push(("evo.memo.hits".to_string(), 3));
        report.counters.push(("evo.memo.misses".to_string(), 1));
        let rates = report.cache_rates();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, "evo.memo");
        assert!((rates[0].3 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_jsonl_reports_bad_line_number() {
        let text =
            "{\"v\":1,\"kind\":\"mark\",\"ts_us\":0,\"thread\":0,\"name\":\"a\"}\nnot json\n";
        let err = RunReport::from_jsonl(text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
