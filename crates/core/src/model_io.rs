//! Model persistence.
//!
//! The paper commits to "making the software and learning models available
//! to the general research community"; this module provides the model
//! half: a compact binary weight format (`DNWT`) plus save/load for every
//! trainable component. The format is a length-prefixed sequence of
//! tensors (rank, dims, little-endian `f32` data) with a magic header and
//! version byte.
#![expect(
    clippy::disallowed_methods,
    reason = "durable-I/O owner: model weight files"
)]

use std::io::Write as _;
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use darnet_nn::Param;
use darnet_tensor::Tensor;

use crate::error::CoreError;
use crate::models::{FrameCnn, ImuRnn};
use crate::Result;

const MAGIC: &[u8; 4] = b"DNWT";
const VERSION: u8 = 1;

/// Serializes a list of tensors into the `DNWT` binary format.
pub fn encode_tensors(tensors: &[Tensor]) -> Vec<u8> {
    let total: usize = tensors.iter().map(|t| t.len() * 4 + 64).sum();
    let mut buf = BytesMut::with_capacity(16 + total);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u32(tensors.len() as u32);
    for t in tensors {
        buf.put_u8(t.rank() as u8);
        for &d in t.dims() {
            buf.put_u32(d as u32);
        }
        for &v in t.data() {
            buf.put_f32_le(v);
        }
    }
    buf.to_vec()
}

/// Deserializes a `DNWT` byte stream back into tensors.
///
/// # Errors
///
/// Returns [`CoreError::Dataset`] on a bad magic, unsupported version,
/// dims whose size overflows, truncated payload, or bytes past the last
/// tensor.
pub fn decode_tensors(data: &[u8]) -> Result<Vec<Tensor>> {
    let mut buf = Bytes::copy_from_slice(data);
    let fail = |msg: &str| CoreError::Dataset(format!("weight decode: {msg}"));
    if buf.remaining() < 9 {
        return Err(fail("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(fail("bad magic"));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(fail(&format!("unsupported version {version}")));
    }
    let count = buf.get_u32() as usize;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        if buf.remaining() < 1 {
            return Err(fail("truncated tensor header"));
        }
        let rank = buf.get_u8() as usize;
        if buf.remaining() < rank * 4 {
            return Err(fail("truncated dims"));
        }
        let dims: Vec<usize> = (0..rank).map(|_| buf.get_u32() as usize).collect();
        let Some(bytes) = dims.iter().try_fold(4usize, |n, &d| n.checked_mul(d)) else {
            return Err(fail("tensor size overflows"));
        };
        if buf.remaining() < bytes {
            return Err(fail("truncated data"));
        }
        let len = bytes / 4;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(buf.get_f32_le());
        }
        out.push(Tensor::from_vec(data, &dims)?);
    }
    if buf.remaining() > 0 {
        return Err(fail("trailing bytes"));
    }
    Ok(out)
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut f = std::fs::File::create(path)
        .map_err(|e| CoreError::Dataset(format!("creating {}: {e}", path.display())))?;
    f.write_all(bytes)
        .map_err(|e| CoreError::Dataset(format!("writing {}: {e}", path.display())))?;
    Ok(())
}

fn read_file(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| CoreError::Dataset(format!("reading {}: {e}", path.display())))
}

/// Copies `weights` into `params` in order, after checking that both list
/// as many tensors and that every shape agrees; on a mismatch nothing is
/// assigned.
fn assign_checked(mut params: Vec<&mut Param>, weights: &[Tensor]) -> Result<()> {
    if params.len() != weights.len() {
        return Err(CoreError::Dataset(format!(
            "weight count mismatch: model has {}, file has {}",
            params.len(),
            weights.len()
        )));
    }
    if let Some((p, w)) = params
        .iter()
        .zip(weights)
        .find(|(p, w)| p.value.dims() != w.dims())
    {
        return Err(CoreError::Dataset(format!(
            "weight shape mismatch: {:?} vs {:?}",
            p.value.dims(),
            w.dims()
        )));
    }
    for (p, w) in params.iter_mut().zip(weights) {
        p.value = w.clone();
    }
    Ok(())
}

impl FrameCnn {
    /// Exports every trainable parameter value in layer order.
    pub fn export_weights(&mut self) -> Vec<Tensor> {
        self.all_params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect()
    }

    /// Imports parameter values previously produced by
    /// [`FrameCnn::export_weights`] on an identically configured model.
    ///
    /// # Errors
    ///
    /// Returns an error if count or shapes disagree.
    pub fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        assign_checked(self.all_params_mut(), weights)
    }

    /// Saves the model weights to a `DNWT` file.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn save_weights(&mut self, path: &Path) -> Result<()> {
        let w = self.export_weights();
        write_file(path, &encode_tensors(&w))
    }

    /// Loads weights from a `DNWT` file into this (identically configured)
    /// model.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O, decode, or shape problems.
    pub fn load_weights(&mut self, path: &Path) -> Result<()> {
        let tensors = decode_tensors(&read_file(path)?)?;
        self.import_weights(&tensors)
    }
}

impl ImuRnn {
    /// Exports every trainable parameter value plus the fitted
    /// standardizer (mean and std rows appended at the end).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] if the model has not been fitted
    /// (the standardizer is part of the inference function).
    pub fn export_weights(&mut self) -> Result<Vec<Tensor>> {
        let (mean, std) = self
            .standardizer_params()
            .ok_or_else(|| CoreError::NotReady("imu rnn not fitted".into()))?;
        let mut out: Vec<Tensor> = self
            .all_params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect();
        out.push(mean);
        out.push(std);
        Ok(out)
    }

    /// Imports weights + standardizer produced by
    /// [`ImuRnn::export_weights`], checking all of them before assigning any.
    ///
    /// # Errors
    ///
    /// Returns an error on count/shape mismatch or a refused standardizer.
    pub fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        let [params @ .., mean, std] = weights else {
            return Err(CoreError::Dataset("weight file too short".into()));
        };
        // Checked before any weight moves; installing it after cannot fail.
        self.standardizer_from(mean, std)?;
        assign_checked(self.all_params_mut(), params)?;
        self.set_standardizer_params(mean, std)
    }

    /// Saves the model to a `DNWT` file.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O problems or an unfitted model.
    pub fn save_weights(&mut self, path: &Path) -> Result<()> {
        let w = self.export_weights()?;
        write_file(path, &encode_tensors(&w))
    }

    /// Loads a `DNWT` file into this (identically configured) model.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O, decode, or shape problems.
    pub fn load_weights(&mut self, path: &Path) -> Result<()> {
        let tensors = decode_tensors(&read_file(path)?)?;
        self.import_weights(&tensors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CnnConfig, RnnConfig};
    use darnet_tensor::SplitMix64;

    #[test]
    fn tensor_codec_roundtrips() {
        let tensors = vec![
            Tensor::from_vec(vec![1.0, -2.5, 3.25], &[3]).unwrap(),
            Tensor::zeros(&[2, 3, 4]),
            Tensor::from_vec(vec![7.5], &[]).unwrap(),
        ];
        let encoded = encode_tensors(&tensors);
        let decoded = decode_tensors(&encoded).unwrap();
        assert_eq!(decoded, tensors);
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(decode_tensors(b"nope").is_err());
        assert!(decode_tensors(b"DNWT").is_err());
        let mut bad_version = encode_tensors(&[Tensor::from_vec(vec![1.0], &[]).unwrap()]);
        bad_version[4] = 99;
        assert!(decode_tensors(&bad_version).is_err());
        let truncated = encode_tensors(&[Tensor::zeros(&[100])]);
        assert!(decode_tensors(&truncated[..20]).is_err());
        // Bytes past the declared tensors are an error, not ignored.
        let t = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let mut trailing = encode_tensors(std::slice::from_ref(&t));
        assert_eq!(decode_tensors(&trailing).unwrap(), [t]);
        trailing.extend_from_slice(&[0xde, 0xad, 0xbe]);
        let err = decode_tensors(&trailing).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        // Dims whose byte length (2^64) or element count (2^64) wraps a
        // usize to 0, which would pass the length check.
        for dims in [&[1u32 << 31, 1 << 31][..], &[1 << 16; 4]] {
            let mut lying = b"DNWT\x01\x00\x00\x00\x01".to_vec();
            lying.push(dims.len() as u8);
            for d in dims {
                lying.extend_from_slice(&d.to_be_bytes());
            }
            assert!(decode_tensors(&lying).is_err(), "{dims:?}");
        }
    }

    #[test]
    fn cnn_weights_roundtrip_preserves_predictions() {
        let config = CnnConfig {
            input_size: 24,
            classes: 3,
            width: 0.5,
            ..CnnConfig::default()
        };
        let mut a = FrameCnn::new(config, 1);
        let mut b = FrameCnn::new(config, 2); // different init
        let x = {
            let mut rng = SplitMix64::new(3);
            let mut t = Tensor::zeros(&[2, 1, 24, 24]);
            for v in t.data_mut() {
                *v = rng.uniform(0.0, 1.0);
            }
            t
        };
        let before = a.predict_proba(&x).unwrap();
        let weights = a.export_weights();
        b.import_weights(&weights).unwrap();
        let after = b.predict_proba(&x).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn cnn_save_load_via_file() {
        let config = CnnConfig {
            input_size: 24,
            classes: 2,
            width: 0.5,
            ..CnnConfig::default()
        };
        let mut a = FrameCnn::new(config, 4);
        let path = std::env::temp_dir().join("darnet_cnn_test.dnwt");
        a.save_weights(&path).unwrap();
        let mut b = FrameCnn::new(config, 5);
        b.load_weights(&path).unwrap();
        let x = Tensor::full(&[1, 1, 24, 24], 0.5);
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn import_rejects_mismatched_architecture() {
        let mut small = FrameCnn::new(
            CnnConfig {
                input_size: 24,
                classes: 2,
                width: 0.5,
                ..CnnConfig::default()
            },
            6,
        );
        let mut big = FrameCnn::new(
            CnnConfig {
                input_size: 24,
                classes: 2,
                width: 1.0,
                ..CnnConfig::default()
            },
            7,
        );
        let w = small.export_weights();
        assert!(big.import_weights(&w).is_err());
    }

    #[test]
    fn rnn_weights_roundtrip_with_standardizer() {
        let config = RnnConfig {
            features: 4,
            hidden: 6,
            depth: 1,
            classes: 2,
            ..RnnConfig::default()
        };
        let mut a = ImuRnn::new(config, 8);
        // Fit briefly so the standardizer exists.
        let mut rng = SplitMix64::new(9);
        let mut x = Tensor::zeros(&[8, 5, 4]);
        for v in x.data_mut() {
            *v = rng.uniform(-2.0, 2.0);
        }
        a.fit(&x, &[0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let before = a.predict_proba(&x).unwrap();

        let path = std::env::temp_dir().join("darnet_rnn_test.dnwt");
        a.save_weights(&path).unwrap();
        let mut b = ImuRnn::new(config, 10);
        b.load_weights(&path).unwrap();
        let after = b.predict_proba(&x).unwrap();
        assert_eq!(before, after);
    }

    /// A file whose standardizer row holds a NaN, a negative or an
    /// infinite `std` does not load.
    #[test]
    fn rnn_file_with_a_corrupt_std_is_refused() {
        let config = RnnConfig {
            features: 4,
            hidden: 4,
            depth: 1,
            classes: 2,
            ..RnnConfig::default()
        };
        let mut a = ImuRnn::new(config, 12);
        let x = Tensor::from_vec((0..32).map(|v| v as f32 * 0.1).collect(), &[2, 4, 4]).unwrap();
        a.fit(&x, &[0, 1], 1).unwrap();
        let weights = a.export_weights().unwrap();
        // A fitted model of other weights: a refused file must leave it
        // as it was, its weights included.
        let mut b = ImuRnn::new(config, 13);
        b.fit(&x, &[1, 0], 1).unwrap();
        let kept = b.export_weights().unwrap();
        let path = std::env::temp_dir().join("darnet_rnn_corrupt_std.dnwt");
        for bad in [f32::NAN, -1.0, f32::INFINITY] {
            let mut corrupt = weights.clone();
            if let Some(std) = corrupt.last_mut() {
                std.data_mut()[1] = bad;
            }
            write_file(&path, &encode_tensors(&corrupt)).unwrap();
            let got = ImuRnn::new(config, 13).load_weights(&path);
            assert!(
                matches!(got, Err(CoreError::Dataset(_))),
                "std {bad}: {got:?}"
            );
            let got = b.load_weights(&path);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "std {bad}");
            assert_eq!(b.export_weights().unwrap(), kept, "std {bad}");
        }
        write_file(&path, &encode_tensors(&weights)).unwrap();
        ImuRnn::new(config, 13).load_weights(&path).unwrap();
    }

    #[test]
    fn unfitted_rnn_cannot_be_saved() {
        let mut rnn = ImuRnn::new(
            RnnConfig {
                features: 4,
                hidden: 4,
                depth: 1,
                classes: 2,
                ..RnnConfig::default()
            },
            11,
        );
        assert!(rnn.export_weights().is_err());
    }
}
