//! Benchmark-side spans around calls into each layer's public functions.
//!
//! Each generator thread owns one [`Tracer`]; spans stay in memory and are
//! written out when the run ends. With tracing off a span is one branch, so
//! the untraced end-to-end numbers are not perturbed.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of the span within its thread's buffer.
    pub id: u32,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// Request id: spans of one request share it.
    pub req: u64,
    /// The layer whose public function was called.
    pub layer: &'static str,
    /// The function called.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span of `layer`/`name` for request `req`.
    #[inline]
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            req,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer: each span's duration minus the part its child spans
/// cover, summed by layer, in milliseconds.
pub fn self_time_ms(tracers: &[&Tracer]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in t.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
    }
    out
}

/// Write every span as one CSV row: `thread,id,parent,req,layer,name,start_ns,end_ns`.
pub fn write_csv(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,id,parent,req,layer,name,start_ns,end_ns")?;
    for (thread, t) in tracers.iter().enumerate() {
        for s in &t.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{thread},{},{parent},{},{},{},{},{}",
                s.id, s.req, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("http", "call", 1, |t| {
            t.span("wire", "parse", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let st = self_time_ms(&[&t]);
        assert!(st["wire"] >= 2.0);
        assert!(st["http"] < st["wire"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("kv", "append", 0, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
