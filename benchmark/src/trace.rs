//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library's public functions, kept in memory, and written out once as a
//! Chrome trace-event file when the run ends. A span's self time is its
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Spans of one step, collective or load point share
/// an `id`; `parent` indexes the enclosing span in the same recorder.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span list. Recorders made from the same epoch merge into
/// one timeline.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span and return its index; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: t,
            end_ns: t,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Time `f` as a span with no children.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, id, parent);
        let r = f();
        self.close(s);
        r
    }

    /// Append another recorder's spans (same epoch), keeping their parent
    /// links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name, in seconds, summed over all spans.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(*c) as f64 / 1e9;
        }
        out
    }

    /// Total duration per span name, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Check that every child lies inside its parent and that siblings do
    /// not overlap, so self times add up to the parent's duration.
    pub fn nesting_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut last_child_end: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                errors.push(format!("span {i} ({}) leaves its parent {p}", s.name));
            }
            let prev = last_child_end.insert(p, s.end_ns).unwrap_or(0);
            if s.start_ns < prev {
                errors.push(format!("span {i} ({}) overlaps a sibling", s.name));
            }
        }
        errors
    }
}

/// Write spans from several recorders as a Chrome trace-event file, one
/// track per recorder, with `header` (a JSON object) as `otherData`.
pub fn chrome_trace_json(tracks: &[(&str, &Recorder)], header: &str) -> String {
    let mut events = Vec::new();
    for (tid, (track, rec)) in tracks.iter().enumerate() {
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"{track}\"}}}}"
        ));
        for s in &rec.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id
            ));
        }
    }
    format!(
        "{{\"otherData\": {header}, \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(Instant::now());
        let step = r.open("step", 0, None);
        r.leaf("a", 0, Some(step), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.leaf("b", 0, Some(step), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(step);
        assert!(r.nesting_errors().is_empty());
        let selfs = r.self_seconds();
        let sum: f64 = selfs.values().sum();
        assert!((sum - r.total_seconds("step")).abs() < 1e-9);
        assert!(selfs["a"] >= 0.002 && selfs["b"] >= 0.002);
    }
}
