//! The write-ahead log ([`darnet_pure::wal`], DESIGN.md §13) and its one
//! filesystem backend, [`DirStorage`].
//!
//! The log itself — framing, checkpoints, replay — is `darnet-pure`'s
//! and touches no filesystem; it persists through whatever
//! [`WalStorage`] it is handed. [`DirStorage`] is the durable-I/O owner
//! that puts segments in a real directory for live mode: the one place
//! in the hot-path crates allowed to touch `std::fs` (a `clippy.toml`
//! ban that its `#[expect]` grants).

use std::path::PathBuf;

pub use darnet_pure::wal::*;

use crate::CollectError;
use crate::Result;

/// Directory-backed [`WalStorage`] for live mode: each object is one file
/// under the root directory.
#[derive(Debug)]
pub struct DirStorage {
    dir: PathBuf,
}

/// Maps one I/O failure into the typed [`CollectError::Wal`] variant.
fn wal_io(object: &str, op: &'static str, e: &std::io::Error) -> CollectError {
    CollectError::Wal {
        object: object.to_string(),
        op,
        kind: e.kind(),
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "durable-I/O owner: the WAL's directory storage backend"
)]
impl DirStorage {
    /// Opens (creating if needed) a directory-backed store.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the directory cannot be
    /// created.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| wal_io(&dir.to_string_lossy(), "create", &e))?;
        Ok(DirStorage { dir })
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "durable-I/O owner: the WAL's directory storage backend"
)]
impl WalStorage for DirStorage {
    fn list(&self) -> Result<Vec<String>> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| wal_io(&self.dir.to_string_lossy(), "list", &e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| wal_io(&self.dir.to_string_lossy(), "list", &e))?;
            if entry.path().is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(names)
    }

    fn read(&self, object: &str) -> Result<Vec<u8>> {
        std::fs::read(self.dir.join(object)).map_err(|e| wal_io(object, "read", &e))
    }

    fn append(&self, object: &str, data: &[u8]) -> Result<()> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(object))
            .map_err(|e| wal_io(object, "append", &e))?;
        file.write_all(data)
            .map_err(|e| wal_io(object, "append", &e))
    }

    fn truncate(&self, object: &str, len: u64) -> Result<()> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join(object))
            .map_err(|e| wal_io(object, "truncate", &e))?;
        file.set_len(len)
            .map_err(|e| wal_io(object, "truncate", &e))
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests put a DirStorage in a temp directory and remove it"
)]
mod tests {
    use std::sync::Arc;

    use darnet_sim::ImuSample;

    use super::*;
    use crate::{
        decode_batch, encode_batch, Batch, ControllerConfig, SensorReading, StampedReading,
    };

    fn imu_batch(agent: u32, seq: u32, stamps: &[f64]) -> Batch {
        decode_batch(encode_batch(&Batch {
            agent_id: agent,
            seq,
            readings: stamps
                .iter()
                .map(|&t| StampedReading {
                    timestamp: t,
                    reading: SensorReading::Imu(ImuSample {
                        accel: [t as f32, 0.5, 9.8],
                        gyro: [0.0; 3],
                        gravity: [0.0, 0.0, 9.8],
                        rotation: [0.1, 0.0, 0.0],
                    }),
                })
                .collect(),
        }))
        .unwrap()
    }

    #[test]
    fn dir_storage_roundtrips_and_repairs() {
        let dir = std::env::temp_dir().join(format!("darnet-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let storage = Arc::new(DirStorage::create(&dir).unwrap());
            let (mut controller, mut wal, _) = open(
                ControllerConfig::default(),
                Arc::<DirStorage>::clone(&storage) as Arc<dyn WalStorage>,
                WalConfig::default(),
            )
            .unwrap();
            for seq in 0..5u32 {
                let t = seq as f64;
                controller
                    .offer_at(t, &imu_batch(0, seq, &[t]), Some(&mut wal))
                    .unwrap();
            }
            wal.simulate_torn_tail(&[0xFF; 3]).unwrap();
        }
        // "Restart the process": reopen from the directory alone.
        let storage = Arc::new(DirStorage::create(&dir).unwrap());
        let (recovered, _, report) = open(
            ControllerConfig::default(),
            storage as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.torn_tail_bytes, 3);
        assert_eq!(recovered.ingest_stats().0, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
