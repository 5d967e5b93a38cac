//! The metric registry: named handles, snapshot exposition.
//!
//! A [`Registry`] is an explicit value — there is deliberately no global
//! default — that hands out `Arc` handles to counters and histograms and
//! can render everything it has seen as Prometheus text exposition or as
//! one JSON object. Registration is idempotent: asking twice for the
//! same `(name, label)` returns the same handle, so independent
//! subsystems can wire themselves without coordination.

use crate::counter::Counter;
use crate::histogram::Histogram;
use crate::json::{JsonArray, JsonObject};
use crate::series::{Kind, Series};
use std::sync::{Arc, Mutex};

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

struct Metric {
    name: String,
    help: String,
    label: Option<(&'static str, String)>,
    handle: Handle,
}

/// A clonable, thread-safe collection of metrics.
///
/// Cloning is shallow: clones share the same underlying metrics, which
/// is how an experiment hands its registry to worker subsystems.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<Vec<Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        label: Option<(&'static str, &str)>,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut metrics = self.metrics.lock().expect("registry lock");
        if let Some(m) = metrics
            .iter()
            .find(|m| m.name == name && m.label.as_ref().map(|(k, v)| (*k, v.as_str())) == label)
        {
            return m.handle.clone();
        }
        let handle = make();
        metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            label: label.map(|(k, v)| (k, v.to_string())),
            handle: handle.clone(),
        });
        handle
    }

    /// The member of `row`'s family with label value `value` (`None`
    /// exactly when the row has no label key).
    fn row_handle(
        &self,
        row: &Series,
        value: Option<&str>,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert_eq!(
            row.label.is_some(),
            value.is_some(),
            "metric {} is labeled by {:?}",
            row.name,
            row.label
        );
        self.get_or_insert(row.name, row.help, row.label.zip(value), make)
    }

    /// The counter of a [`Kind::Counter`] row, e.g.
    /// `counter(&series::PACKETS_DROPPED, Some("ttl_expired"))`.
    /// Registration is idempotent: every label value is its own series
    /// under the row's family name.
    pub fn counter(&self, row: &Series, label: Option<&str>) -> Arc<Counter> {
        let Kind::Counter = row.kind else {
            panic!("metric {} is a histogram", row.name);
        };
        match self.row_handle(row, label, || Handle::Counter(Arc::new(Counter::new()))) {
            Handle::Counter(c) => c,
            Handle::Histogram(_) => panic!("metric {} already registered as a histogram", row.name),
        }
    }

    /// The histogram of a [`Kind::Histogram`] row, exposed at the row's
    /// scale, e.g. `histogram(&series::SPF_REPAIR_SECONDS, Some("tree"))`.
    pub fn histogram(&self, row: &Series, label: Option<&str>) -> Arc<Histogram> {
        let Kind::Histogram { scale } = row.kind else {
            panic!("metric {} is a counter", row.name);
        };
        match self.row_handle(row, label, || {
            Handle::Histogram(Arc::new(Histogram::with_scale(scale)))
        }) {
            Handle::Histogram(h) => h,
            Handle::Counter(_) => panic!("metric {} already registered as a counter", row.name),
        }
    }

    /// An unlabeled histogram recorded in nanoseconds and exposed in
    /// seconds, named by the caller instead of by a [`Series`] row. The
    /// benchmark harness (`e2e/src/pipeline.rs`) registers the daemon's
    /// event-visible latency through it; code in this workspace uses
    /// [`Registry::histogram`].
    pub fn histogram_seconds(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, help, None, || {
            Handle::Histogram(Arc::new(Histogram::with_scale(1e-9)))
        }) {
            Handle::Histogram(h) => h,
            Handle::Counter(_) => panic!("metric {name} already registered as a counter"),
        }
    }

    /// Render every metric as Prometheus text exposition (version 0.0.4).
    ///
    /// The exposition format requires every sample of a family to sit
    /// contiguously under a single `# HELP`/`# TYPE` header, so series
    /// are grouped by family (in first-registration order) regardless of
    /// the order labeled variants were registered in. Each histogram
    /// family is followed by a `<name>_quantile` companion gauge family
    /// carrying the p50/p90/p99 estimates (quantile series cannot live
    /// inside a `histogram`-typed family, so they get their own).
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().expect("registry lock");
        let mut families: Vec<&str> = Vec::new();
        for m in metrics.iter() {
            if !families.contains(&m.name.as_str()) {
                families.push(&m.name);
            }
        }
        let mut out = String::new();
        for family in families {
            let members: Vec<&Metric> = metrics.iter().filter(|m| m.name == family).collect();
            out.push_str(&format!(
                "# HELP {} {}\n",
                family,
                escape_help(&members[0].help)
            ));
            let kind = match members[0].handle {
                Handle::Counter(_) => "counter",
                Handle::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            for m in &members {
                match &m.handle {
                    Handle::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            m.name,
                            label_text(&m.label, None),
                            c.get()
                        ));
                    }
                    Handle::Histogram(h) => {
                        for (le, cum) in h.cumulative_buckets() {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                m.name,
                                label_text(&m.label, Some(("le", &format!("{le}")))),
                                cum
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            m.name,
                            label_text(&m.label, Some(("le", "+Inf"))),
                            h.count()
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            m.name,
                            label_text(&m.label, None),
                            h.sum_scaled()
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            m.name,
                            label_text(&m.label, None),
                            h.count()
                        ));
                    }
                }
            }
            // Emit the quantile companion right after its parent family,
            // one gauge triple per member so labeled histogram variants
            // (e.g. per-strategy repair timings) keep distinct quantiles.
            if matches!(members[0].handle, Handle::Histogram(_)) {
                out.push_str(&format!(
                    "# HELP {family}_quantile Estimated quantiles of {family} (log2-bucket interpolation)\n"
                ));
                out.push_str(&format!("# TYPE {family}_quantile gauge\n"));
                for m in &members {
                    let Handle::Histogram(h) = &m.handle else {
                        continue;
                    };
                    let (p50, p90, p99) = h.quantiles();
                    for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99)] {
                        out.push_str(&format!(
                            "{family}_quantile{} {v}\n",
                            label_text(&m.label, Some(("quantile", q)))
                        ));
                    }
                }
            }
        }
        out
    }

    /// Render every metric as one JSON object:
    /// `{"counters": [...], "histograms": [...]}`.
    pub fn render_json(&self) -> String {
        let metrics = self.metrics.lock().expect("registry lock");
        let mut counters = JsonArray::new();
        let mut histograms = JsonArray::new();
        for m in metrics.iter() {
            let mut labels = JsonObject::new();
            if let Some((k, v)) = &m.label {
                labels = labels.field_str(k, v);
            }
            match &m.handle {
                Handle::Counter(c) => {
                    counters = counters.push_raw(
                        &JsonObject::new()
                            .field_str("name", &m.name)
                            .field_raw("labels", &labels.finish())
                            .field_u64("value", c.get())
                            .finish(),
                    );
                }
                Handle::Histogram(h) => {
                    let mut buckets = JsonArray::new();
                    for (le, cum) in h.cumulative_buckets() {
                        buckets = buckets.push_raw(
                            &JsonObject::new()
                                .field_f64("le", le)
                                .field_u64("count", cum)
                                .finish(),
                        );
                    }
                    let (p50, p90, p99) = h.quantiles();
                    histograms = histograms.push_raw(
                        &JsonObject::new()
                            .field_str("name", &m.name)
                            .field_u64("count", h.count())
                            .field_f64("sum", h.sum_scaled())
                            .field_f64("mean", h.mean_scaled())
                            .field_f64("p50", p50)
                            .field_f64("p90", p90)
                            .field_f64("p99", p99)
                            .field_raw("buckets", &buckets.finish())
                            .finish(),
                    );
                }
            }
        }
        JsonObject::new()
            .field_raw("counters", &counters.finish())
            .field_raw("histograms", &histograms.finish())
            .finish()
    }
}

/// Escape a HELP string for the text exposition format, which gives
/// backslash and line feed special meaning (a raw newline would start a
/// bogus sample line).
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Render a Prometheus label set: the series' own label, then `extra`
/// (`le` on a bucket sample, `quantile` on a companion gauge), so
/// labeled families keep their identifying label on every sample.
fn label_text(label: &Option<(&'static str, String)>, extra: Option<(&str, &str)>) -> String {
    let parts: Vec<String> = label
        .iter()
        .map(|(k, v)| (*k, v.as_str()))
        .chain(extra)
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{self, Kind, Series};

    const fn row(name: &'static str, kind: Kind, label: Option<&'static str>) -> Series {
        Series {
            name,
            help: "A test series",
            kind,
            label,
        }
    }
    const DROPS: Series = row("drops_total", Kind::Counter, Some("reason"));
    const C: Series = row("c_total", Kind::Counter, None);
    const H: Series = row("h", Kind::Histogram { scale: 1.0 }, None);

    #[test]
    fn counter_registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter(&series::PACKETS_FORWARDED, None);
        let b = reg.counter(&series::PACKETS_FORWARDED, None);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same underlying counter");
    }

    #[test]
    fn labeled_counters_are_distinct() {
        let reg = Registry::new();
        let ttl = reg.counter(&DROPS, Some("ttl"));
        let route = reg.counter(&DROPS, Some("no_route"));
        ttl.add(3);
        route.add(5);
        let text = reg.render_prometheus();
        assert!(text.contains("drops_total{reason=\"ttl\"} 3"));
        assert!(text.contains("drops_total{reason=\"no_route\"} 5"));
        // HELP/TYPE emitted once per family.
        assert_eq!(text.matches("# TYPE drops_total counter").count(), 1);
    }

    #[test]
    fn prometheus_counter_format() {
        let reg = Registry::new();
        reg.counter(&series::DEFLECTIONS, None).add(7);
        let text = reg.render_prometheus();
        assert!(text.contains(&format!(
            "# HELP splice_deflections_total {}\n",
            series::DEFLECTIONS.help
        )));
        assert!(text.contains("# TYPE splice_deflections_total counter\n"));
        assert!(text.contains("\nsplice_deflections_total 7\n") || text.starts_with("# HELP"));
        assert!(text.contains("splice_deflections_total 7\n"));
    }

    #[test]
    fn prometheus_histogram_format() {
        let reg = Registry::new();
        let h = reg.histogram(&H, None);
        h.record(3); // bucket (2, 4]
        h.record(4);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE h histogram"));
        assert!(text.contains("h_bucket{le=\"4\"} 2"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("h_sum 7"));
        assert!(text.contains("h_count 2"));
    }

    /// A promtool-flavored validity check of text exposition: every
    /// family is announced exactly once by `# HELP` then `# TYPE`, all
    /// of its samples sit contiguously under that header (histograms may
    /// only add the `_bucket`/`_sum`/`_count` suffixes), every sample
    /// value parses, and every histogram family ends with a `+Inf`
    /// bucket.
    fn assert_promtool_valid(text: &str) {
        let close_family = |family: &Option<(String, String)>, saw_inf: bool| {
            if let Some((name, kind)) = family {
                assert!(!kind.is_empty(), "family {name} has HELP but no TYPE");
                if kind == "histogram" {
                    assert!(saw_inf, "histogram {name} is missing its +Inf bucket");
                }
            }
        };
        let mut announced: Vec<String> = Vec::new();
        let mut family: Option<(String, String)> = None;
        let mut saw_inf = false;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(!announced.contains(&name), "family {name} announced twice");
                close_family(&family, saw_inf);
                announced.push(name.clone());
                family = Some((name, String::new()));
                saw_inf = false;
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap();
                let kind = it.next().expect("TYPE names a kind");
                let fam = family.as_mut().expect("TYPE without a preceding HELP");
                assert_eq!(fam.0, name, "TYPE must follow its own family's HELP");
                fam.1 = kind.to_string();
            } else if !line.is_empty() {
                let (fam, kind) = family.as_ref().expect("sample before any header");
                let sample = line.split(['{', ' ']).next().unwrap();
                let suffixed = |s: &str| sample == format!("{fam}{s}");
                assert!(
                    sample == fam
                        || (kind == "histogram"
                            && (suffixed("_bucket") || suffixed("_sum") || suffixed("_count"))),
                    "sample {sample} is outside its family block ({fam})"
                );
                if suffixed("_bucket") && line.contains("le=\"+Inf\"") {
                    saw_inf = true;
                }
                let value = line.rsplit(' ').next().unwrap();
                assert!(
                    value.parse::<f64>().is_ok(),
                    "sample value {value:?} does not parse"
                );
            }
        }
        close_family(&family, saw_inf);
    }

    #[test]
    fn exposition_passes_promtool_style_parsing() {
        let reg = Registry::new();
        reg.counter(&DROPS, Some("ttl")).inc();
        let h = reg.histogram_seconds("repair_seconds", "Repair wall time");
        h.record(1500);
        // Registered after the histogram, but the exposition must fold
        // it back into the drops_total family block.
        reg.counter(&DROPS, Some("no_route")).add(2);
        let text = reg.render_prometheus();
        assert_promtool_valid(&text);
        let lines: Vec<&str> = text.lines().collect();
        let ttl = lines
            .iter()
            .position(|l| l.starts_with("drops_total{reason=\"ttl\"}"))
            .expect("ttl sample present");
        assert!(
            lines[ttl + 1].starts_with("drops_total{reason=\"no_route\"}"),
            "family samples must be contiguous, got {:?}",
            lines[ttl + 1]
        );
        assert_eq!(text.matches("# TYPE drops_total counter").count(), 1);
    }

    #[test]
    fn histograms_export_quantile_companion_gauges() {
        let reg = Registry::new();
        let h = reg.histogram_seconds("splice_spf_repair_seconds", "Delta repair wall time");
        for _ in 0..99 {
            h.record(1_000); // ~1 µs
        }
        h.record(1_000_000); // one 1 ms outlier
        let text = reg.render_prometheus();
        assert_promtool_valid(&text);
        assert!(text.contains("# TYPE splice_spf_repair_seconds_quantile gauge"));
        let p99_line = text
            .lines()
            .find(|l| l.starts_with("splice_spf_repair_seconds_quantile{quantile=\"0.99\"}"))
            .expect("p99 gauge present");
        let p99: f64 = p99_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(p99 > 0.0, "p99 reflects recorded data: {p99_line}");
        // Empty histograms still expose the family (gauges read 0).
        let reg = Registry::new();
        reg.histogram_seconds("empty_seconds", "Never recorded");
        let text = reg.render_prometheus();
        assert_promtool_valid(&text);
        assert!(text.contains("empty_seconds_quantile{quantile=\"0.99\"} 0"));
    }

    #[test]
    fn labeled_histograms_export_per_member_quantiles() {
        let reg = Registry::new();
        let spf = reg.histogram(&series::FIB_ARENA_BYTES, Some("perturbed-spf"));
        let tree = reg.histogram(&series::FIB_ARENA_BYTES, Some("tree"));
        spf.record(4096);
        tree.record(128);
        let text = reg.render_prometheus();
        assert_promtool_valid(&text);
        // Each family member gets its own quantile gauges, identifying
        // labels first and the quantile pair last.
        assert!(text.contains(
            "splice_fib_arena_bytes_quantile{strategy=\"perturbed-spf\",quantile=\"0.99\"}"
        ));
        assert!(
            text.contains("splice_fib_arena_bytes_quantile{strategy=\"tree\",quantile=\"0.5\"}")
        );
        // The TYPE header appears once per family, not per member.
        let headers = text
            .lines()
            .filter(|l| *l == "# TYPE splice_fib_arena_bytes_quantile gauge")
            .count();
        assert_eq!(headers, 1);
    }

    #[test]
    fn help_text_is_escaped() {
        let reg = Registry::new();
        let c = Series {
            help: "line one\nline two \\ done",
            ..C
        };
        reg.counter(&c, None).inc();
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP c_total line one\\nline two \\\\ done\n"));
        assert_promtool_valid(&text);
    }

    #[test]
    fn json_snapshot_carries_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram(&H, None);
        for v in 1..=100u64 {
            h.record(v);
        }
        let json = reg.render_json();
        assert!(json.contains(r#""p50":"#));
        assert!(json.contains(r#""p90":"#));
        assert!(json.contains(r#""p99":"#));
    }

    #[test]
    fn json_snapshot_shape() {
        let reg = Registry::new();
        reg.counter(&C, None).add(2);
        let h = reg.histogram(&H, None);
        h.record(1);
        let json = reg.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""name":"c_total","labels":{},"value":2"#));
        assert!(json.contains(r#""name":"h","count":1"#));
        assert!(json.contains(r#""buckets":[{"le":1,"count":1}]"#));
    }

    #[test]
    fn empty_registry_renders_empty() {
        let reg = Registry::new();
        assert_eq!(reg.render_prometheus(), "");
        assert_eq!(reg.render_json(), r#"{"counters":[],"histograms":[]}"#);
    }

    #[test]
    fn clones_share_metrics() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.counter(&C, None).inc();
        assert!(reg.render_prometheus().contains("c_total 1"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.histogram_seconds("c_total", "As histogram");
        reg.counter(&C, None);
    }

    #[test]
    #[should_panic(expected = "is labeled by")]
    fn a_labeled_row_needs_its_label_value() {
        Registry::new().counter(&DROPS, None);
    }
}
