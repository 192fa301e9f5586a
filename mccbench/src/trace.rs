//! The benchmark's own spans. They sit around calls into each layer's
//! public functions, in the benchmark's files only; nothing inside the
//! program is instrumented. Spans are kept in memory and written out as
//! JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later spans are counted but dropped.
const MAX_SPANS: usize = 1 << 20;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let start_ns = self.now();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        })
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect()
    }

    /// Self time of each span called `name`: its duration minus the part
    /// of its interval its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push(i as u32);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let mut cover: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c as usize];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                cover.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in cover {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.nanos() - covered
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        t.spans.push(span("root", 0, 100, NO_PARENT));
        t.spans.push(span("a", 10, 40, 0));
        t.spans.push(span("b", 30, 50, 0));
        t.spans.push(span("c", 90, 120, 0));
        assert_eq!(t.self_times("root"), vec![100 - 40 - 10]);
    }
}
