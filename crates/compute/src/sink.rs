//! Sinks: where jobs write their results.
//!
//! The paper's pipelines sink into Kafka topics (for downstream
//! subscribers and Pinot ingestion), key-value stores (surge, §5.1) and
//! collection endpoints. The Pinot sink adapter lives in `rtdi-flinksql`
//! to keep this crate independent of the OLAP layer.

use parking_lot::Mutex;
use rtdi_common::{Record, Result, Row, Timestamp};
use rtdi_stream::topic::Topic;
use std::sync::Arc;

/// A record sink.
pub trait Sink: Send {
    fn write(&mut self, record: Record) -> Result<()>;

    /// Write a whole batch of handles, equivalent to writing each record
    /// in order. The sink owns the handles, not necessarily the records:
    /// one that a filter forwarded is still the log's. A sink that keeps
    /// or changes a record may take it out of a handle it holds alone and
    /// must copy one that is shared (this default does, through
    /// [`Sink::write`]); a sink that can keep the handle itself
    /// ([`TopicSink`]) copies nothing.
    fn write_batch(&mut self, records: Vec<Arc<Record>>) -> Result<()> {
        for record in records {
            self.write(Arc::unwrap_or_clone(record))?;
        }
        Ok(())
    }

    /// Called when a bounded run completes or at a checkpoint boundary.
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Collects results into a shared vector (tests, examples, dashboards).
#[derive(Clone, Default)]
pub struct CollectSink {
    rows: Arc<Mutex<Vec<Record>>>,
}

impl CollectSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn records(&self) -> Vec<Record> {
        self.rows.lock().clone()
    }

    pub fn rows(&self) -> Vec<Row> {
        self.rows.lock().iter().map(|r| r.value.clone()).collect()
    }

    pub fn len(&self) -> usize {
        self.rows.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.lock().is_empty()
    }
}

impl Sink for CollectSink {
    fn write(&mut self, record: Record) -> Result<()> {
        self.rows.lock().push(record);
        Ok(())
    }

    fn write_batch(&mut self, records: Vec<Arc<Record>>) -> Result<()> {
        // keeps the records: copies only those something else still holds
        let owned = records.into_iter().map(Arc::unwrap_or_clone);
        self.rows.lock().extend(owned);
        Ok(())
    }
}

/// Produces results into a stream topic.
pub struct TopicSink {
    topic: Arc<Topic>,
    now: Box<dyn Fn() -> Timestamp + Send>,
}

impl TopicSink {
    pub fn new(topic: Arc<Topic>, now: impl Fn() -> Timestamp + Send + 'static) -> Self {
        TopicSink {
            topic,
            now: Box::new(now),
        }
    }
}

impl Sink for TopicSink {
    fn write(&mut self, record: Record) -> Result<()> {
        self.topic.append(record, (self.now)())?;
        Ok(())
    }

    /// The destination log stores the handles it is given.
    fn write_batch(&mut self, records: Vec<Arc<Record>>) -> Result<()> {
        for record in records {
            self.topic.append(record, (self.now)())?;
        }
        Ok(())
    }
}

/// Closure adaptor.
pub struct FnSink<F: FnMut(Record) -> Result<()> + Send> {
    f: F,
}

impl<F: FnMut(Record) -> Result<()> + Send> FnSink<F> {
    pub fn new(f: F) -> Self {
        FnSink { f }
    }
}

impl<F: FnMut(Record) -> Result<()> + Send> Sink for FnSink<F> {
    fn write(&mut self, record: Record) -> Result<()> {
        (self.f)(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_stream::topic::TopicConfig;

    #[test]
    fn collect_sink_accumulates() {
        let mut sink = CollectSink::new();
        let view = sink.clone();
        sink.write(Record::new(Row::new().with("a", 1i64), 0))
            .unwrap();
        sink.write(Record::new(Row::new().with("a", 2i64), 1))
            .unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.rows()[1].get_int("a"), Some(2));
    }

    #[test]
    fn topic_sink_produces() {
        let t = Arc::new(Topic::new("out", TopicConfig::default().with_partitions(1)).unwrap());
        let mut sink = TopicSink::new(t.clone(), || 42);
        sink.write(Record::new(Row::new().with("x", 1i64), 7))
            .unwrap();
        assert_eq!(t.total_records(), 1);
    }

    #[test]
    fn fn_sink_invokes_closure() {
        let mut n = 0;
        {
            let mut sink = FnSink::new(|_r| {
                n += 1;
                Ok(())
            });
            sink.write(Record::new(Row::new(), 0)).unwrap();
            sink.write(Record::new(Row::new(), 0)).unwrap();
            sink.flush().unwrap();
        }
        assert_eq!(n, 2);
    }
}
