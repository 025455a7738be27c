//! Benchmark-side spans: name, start, end and parent, kept in memory and
//! written out when the run ends. Each thread (the main thread and every
//! rank thread) records its own track, so a parent is always the enclosing
//! open span of the same thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the run's origin.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same track.
    pub parent: Option<usize>,
}

/// One thread's spans. A disabled recorder records nothing, so the timed
/// (untraced) runs carry no span bookkeeping.
pub struct Track {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Track {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Track {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "unbalanced spans");
        self.spans
    }
}

/// Self time per span name: each span's duration minus the part covered
/// by its children, summed over every span of that name in `tracks`.
pub fn self_times(tracks: &[(String, Vec<Span>)]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (_, spans) in tracks {
        let mut child = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        for (s, c) in spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - c;
        }
    }
    out
}

/// All tracks as one JSON document.
pub fn to_json(tracks: &[(String, Vec<Span>)]) -> String {
    let mut s = String::from("{\"tracks\": [\n");
    for (ti, (track, spans)) in tracks.iter().enumerate() {
        let _ = write!(s, "  {{\"track\": \"{track}\", \"spans\": [");
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}\n    {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                if i == 0 { "" } else { "," },
                sp.name,
                sp.start,
                sp.end
            );
        }
        let _ = write!(
            s,
            "\n  ]}}{}\n",
            if ti + 1 == tracks.len() { "" } else { "," }
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "outer",
                start: 0.0,
                end: 10.0,
                parent: None,
            },
            Span {
                name: "inner",
                start: 1.0,
                end: 4.0,
                parent: Some(0),
            },
            Span {
                name: "inner",
                start: 5.0,
                end: 6.0,
                parent: Some(0),
            },
        ];
        let t = self_times(&[("main".to_string(), spans)]);
        assert_eq!(t["outer"], 6.0);
        assert_eq!(t["inner"], 4.0);
    }

    #[test]
    fn disabled_track_records_nothing() {
        let mut t = Track::new(Instant::now(), false);
        t.span("x", || ());
        assert!(t.into_spans().is_empty());
    }
}
