//! The benchmark's own span recorder and the self-time aggregator.
//!
//! Spans are recorded by the load thread only, around calls into a layer
//! of the program; nothing inside `crates/` records one. A workload runs
//! fixed blocks of operations in phases, so one span covers a whole phase
//! of a block, and the phases of a block chain: one clock read closes a
//! phase and opens the next. With the tracer disabled, every call here is
//! a not-taken branch and reads no clock, which is what keeps the untraced
//! run's block structure identical to the traced one.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` is the id of the span that caused it;
/// all spans of one block share `cycle`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub cycle: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, at exit.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    cycle: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            cycle: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between windows (the traced run
    /// alternates traced and untraced windows to price the tracing).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the tracer was created; 0 when disabled.
    #[inline]
    pub fn mark(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Open the root span of a block. Returns `(id, start)`; close it with
    /// [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> (u32, u64) {
        if !self.enabled {
            return (0, 0);
        }
        if parent.is_none() {
            self.cycle += 1;
        }
        let start = self.mark();
        let id = self.push(name, parent, start, start);
        (id, start)
    }

    /// Close a span opened with [`Tracer::open`] at the current time and
    /// return that time.
    #[inline]
    pub fn close(&mut self, id: u32) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.mark();
        self.spans[id as usize].end_ns = now;
        now
    }

    /// Record `[start, now]` as a child of `parent` and return `now`, so
    /// the next phase starts where this one ended.
    #[inline]
    pub fn phase(&mut self, name: &'static str, parent: u32, start: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.mark();
        self.push(name, Some(parent), start, now);
        now
    }

    /// Record an interval measured by the caller. Workloads whose phases
    /// interleave per operation (one submit, one wait, repeat) sum each
    /// phase over the block and lay the sums end to end inside the block's
    /// span: the durations are measured, the positions are not.
    #[inline]
    pub fn interval(&mut self, name: &'static str, parent: u32, start: u64, dur: u64) {
        if self.enabled {
            self.push(name, Some(parent), start, start + dur);
        }
    }

    fn push(&mut self, name: &'static str, parent: Option<u32>, start: u64, end: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            parent,
            cycle: self.cycle,
            start_ns: start,
            end_ns: end,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span and line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"cycle\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, parent, s.cycle, s.start_ns, s.end_ns
            )?;
        }
        // A dropped BufWriter swallows write errors; flush reports them.
        out.flush()
    }
}

/// Self time and span count per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub self_ns: u64,
    pub spans: u64,
}

/// A span's self time is its duration minus the part of it its child spans
/// cover (children are clamped to the parent and overlapping children are
/// counted once). Summed per name. `spans` may be any subset that holds
/// whole trees.
pub fn self_times<'a>(
    spans: impl IntoIterator<Item = &'a Span> + Clone,
) -> BTreeMap<&'static str, SelfTime> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.clone() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let entry = out.entry(s.name).or_default();
        entry.self_ns += (s.end_ns - s.start_ns) - covered;
        entry.spans += 1;
    }
    out
}

/// Total duration of the root spans (spans without a parent).
pub fn root_ns<'a>(spans: impl IntoIterator<Item = &'a Span>) -> u64 {
    spans
        .into_iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Structural check used by the tests and by every traced run: ids are
/// dense, a parent precedes its child, shares its cycle and contains it.
pub fn check_links(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.id as usize != i {
            return Err(format!("span {i} has id {}", s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ends before it starts"));
        }
        if let Some(p) = s.parent {
            let Some(parent) = spans.get(p as usize).filter(|_| p < s.id) else {
                return Err(format!(
                    "span {i} names parent {p}, which does not precede it"
                ));
            };
            if parent.cycle != s.cycle {
                return Err(format!(
                    "span {i} and its parent {p} are in different cycles"
                ));
            }
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!("span {i} is not inside its parent {p}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            name,
            parent,
            cycle: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn children_are_subtracted_and_self_times_sum_to_the_block() {
        let spans = vec![
            span(0, "cycle", None, 0, 100),
            span(1, "client.gen", Some(0), 0, 10),
            span(2, "ring.reap", Some(0), 10, 70),
            span(3, "kernel.reap_wait", Some(2), 10, 40),
            span(4, "client.verify", Some(0), 70, 95),
        ];
        check_links(&spans).unwrap();
        let st = self_times(&spans);
        assert_eq!(st["client.gen"].self_ns, 10);
        assert_eq!(st["ring.reap"].self_ns, 30); // 60 minus the 30 waited
        assert_eq!(st["kernel.reap_wait"].self_ns, 30);
        assert_eq!(st["client.verify"].self_ns, 25);
        assert_eq!(st["cycle"].self_ns, 5); // the uncovered tail
        let total: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total, root_ns(&spans));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(0, "cycle", None, 0, 100),
            span(1, "a", Some(0), 10, 60),
            span(2, "b", Some(0), 40, 80),
        ];
        assert_eq!(self_times(&spans)["cycle"].self_ns, 30);
    }

    #[test]
    fn bad_links_are_reported() {
        let forward = vec![span(0, "a", Some(1), 0, 1), span(1, "b", None, 0, 2)];
        assert!(check_links(&forward).is_err());
        let outside = vec![span(0, "a", None, 0, 10), span(1, "b", Some(0), 5, 11)];
        assert!(check_links(&outside).is_err());
        let mut other_cycle = vec![span(0, "a", None, 0, 10), span(1, "b", Some(0), 1, 2)];
        other_cycle[1].cycle = 2;
        assert!(check_links(&other_cycle).is_err());
    }

    #[test]
    fn recorder_chains_phases_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        let (root, t0) = tr.open("cycle", None);
        let t1 = tr.phase("client.gen", root, t0);
        let t2 = tr.phase("kernel.call", root, t1);
        tr.interval("kernel.reap_wait", root, t2, 0);
        tr.close(root);
        let (root2, _) = tr.open("cycle", None);
        tr.close(root2);
        check_links(tr.spans()).unwrap();
        assert_eq!(tr.spans().len(), 5);
        assert_eq!(tr.spans()[1].end_ns, tr.spans()[2].start_ns);
        assert_eq!(tr.spans()[0].cycle, 1);
        assert_eq!(tr.spans()[4].cycle, 2);
        let total: u64 = self_times(tr.spans()).values().map(|s| s.self_ns).sum();
        assert_eq!(total, root_ns(tr.spans()));

        let mut off = Tracer::new(false);
        let (root, t0) = off.open("cycle", None);
        off.phase("client.gen", root, t0);
        off.close(root);
        assert!(off.spans().is_empty());
        assert_eq!(off.mark(), 0);
    }
}
