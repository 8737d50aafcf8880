//! Standalone replays for the per-layer metrics no span can reach from
//! outside `crates/`: a captured batch is pushed through same-shaped
//! public layers and kernels, after the steady phase and off its clock.
//! Times are the median of [`REPS`] runs on warm workspaces; FLOPs and
//! bytes are computed from tensor shapes, never measured.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use darnet_collect::wal::{self, DirStorage, MemStorage, WalConfig, WalStorage};
use darnet_collect::{
    decode_batch, encode_batch, interpolate_grid, moving_average, Batch, ControllerConfig,
    GridSpec, SensorReading, TsDb,
};
use darnet_core::dataset::{frames_to_tensor, Standardizer};
use darnet_core::{CnnConfig, FrameCnn, ImuRnn, NaryBayesianCombiner, RnnConfig};
use darnet_nn::{
    BiLstm, Conv2d, Dense, InceptionBlock, InceptionChannels, Layer, MaxPool2d, Mode, Relu,
};
use darnet_sim::Frame;
use darnet_tensor::{im2col_into, Conv2dSpec, Parallelism, SplitMix64, Tensor, Workspace};

use crate::clock::median;
use crate::engine::{EngineSpec, CLASSES};
use crate::fixture::{FitSet, Message, IMU_FEATURES, WINDOW_LEN};
use crate::fleet;
use crate::Res;

const REPS: usize = 9;

/// Median wall seconds of `f` over [`REPS`] runs after one warm-up.
fn time<T>(mut f: impl FnMut() -> Res<T>) -> Res<f64> {
    black_box(f()?);
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(f()?);
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&mut samples))
}

/// [`time`] of one layer's `forward_into` on a warm workspace.
fn time_layer(layer: &mut dyn Layer, input: &Tensor, ws: &mut Workspace) -> Res<f64> {
    time(|| {
        let out = layer.forward_into(input, Mode::Eval, ws)?;
        ws.restore(out);
        Ok(())
    })
}

fn scaled(base: usize, width: f32) -> usize {
    ((base as f32 * width).round() as usize).max(1)
}

/// Achieved GFLOP/s of the `[m,k]·[n,k]ᵀ` product every dense, conv and
/// LSTM layer lowers to.
fn gemm_gflops(m: usize, k: usize, n: usize) -> Res<f64> {
    let a = Tensor::full(&[m, k], 0.5);
    let w = Tensor::full(&[n, k], 0.25);
    let mut out = Tensor::zeros(&[m, n]);
    let par = Parallelism::serial();
    let s = time(|| Ok(a.matmul_transpose_b_into(&w, &par, &mut out)?))?;
    Ok((2 * m * k * n) as f64 / s / 1e9)
}

fn inception_flops(cin: usize, ch: &InceptionChannels, hw: usize) -> usize {
    2 * hw
        * (cin * ch.c1
            + cin * ch.c3_reduce
            + ch.c3_reduce * 9 * ch.c3
            + cin * ch.c5_reduce
            + ch.c5_reduce * 25 * ch.c5
            + cin * ch.pool_proj)
}

/// Replays one captured batch through the models and their inner layers.
/// `front` and `windows` are a batch as the engine saw it.
pub fn model_layers(
    spec: &EngineSpec,
    fit: &FitSet,
    front: &[Frame],
    windows: &Tensor,
    peak_gflops: f64,
    m: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let n = front.len();
    let w = spec.cnn_width;
    let size = spec.frame_size;
    let frames = frames_to_tensor(front)?;
    let mut rng = SplitMix64::new(7);
    let mut ws = Workspace::new();
    let mut out = Vec::new();

    // Whole models, through the same `predict_proba_into` the engine calls.
    let mut cnn = FrameCnn::new(
        CnnConfig {
            input_size: size,
            classes: CLASSES,
            width: w,
            ..CnnConfig::default()
        },
        1,
    );
    let cnn_s = time(|| Ok(cnn.predict_proba_into(&frames, &mut out)?))? / n as f64;
    m.insert("cnn.forward_us_per_frame", cnn_s * 1e6);
    let mut rnn = ImuRnn::new(
        RnnConfig {
            hidden: spec.rnn_hidden,
            depth: spec.rnn_depth,
            ..RnnConfig::default()
        },
        2,
    );
    let (mean, std) = Standardizer::fit(&fit.windows)?.to_tensors();
    rnn.set_standardizer_params(&mean, &std)?;
    let rnn_s = time(|| Ok(rnn.predict_proba_into(windows, &mut out)?))? / n as f64;
    m.insert("rnn.forward_us_per_window", rnn_s * 1e6);

    let cards = vec![3, CLASSES, CLASSES];
    let cards = if spec.side_view {
        cards
    } else {
        cards[..2].to_vec()
    };
    let mut combiner = NaryBayesianCombiner::new(CLASSES, cards.clone(), 1.0);
    let uniform: Vec<Tensor> = cards
        .iter()
        .map(|&k| Tensor::full(&[CLASSES, k], 1.0 / k as f32))
        .collect();
    combiner.fit(
        &uniform.iter().collect::<Vec<_>>(),
        &(0..CLASSES).collect::<Vec<_>>(),
    )?;
    let rows: Vec<&[f32]> = uniform.iter().map(|t| &t.data()[..t.dims()[1]]).collect();
    let mut scores = Vec::new();
    let fuse_s = time(|| Ok(combiner.combine_n_into(&rows, &mut scores)?))?;
    m.insert("ensemble.fuse_us_per_label", fuse_s * 1e6);

    // The CNN's layers, chained so each sees real activations.
    let c_stem = scaled(8, w);
    let ch_a = InceptionChannels {
        c1: scaled(4, w),
        c3_reduce: scaled(4, w),
        c3: scaled(6, w),
        c5_reduce: scaled(2, w),
        c5: scaled(3, w),
        pool_proj: scaled(3, w),
    };
    let ch_b = InceptionChannels {
        c1: scaled(6, w),
        c3_reduce: scaled(6, w),
        c3: scaled(10, w),
        c5_reduce: scaled(3, w),
        c5: scaled(4, w),
        pool_proj: scaled(4, w),
    };
    let mut stem = Conv2d::square(1, c_stem, 3, 1, 1, &mut rng);
    let mut block_a = InceptionBlock::new(c_stem, ch_a, &mut rng);
    let mut block_b = InceptionBlock::new(ch_a.total(), ch_b, &mut rng);
    let mut relu = Relu::new();
    let mut pool = MaxPool2d::new(2, 2);
    let stem_s = time_layer(&mut stem, &frames, &mut ws)?;
    let x = stem.forward(&frames, Mode::Eval)?;
    let x = pool.forward(&relu.forward(&x, Mode::Eval)?, Mode::Eval)?;
    let a_s = time_layer(&mut block_a, &x, &mut ws)?;
    let x = pool.forward(&block_a.forward(&x, Mode::Eval)?, Mode::Eval)?;
    let b_s = time_layer(&mut block_b, &x, &mut ws)?;
    let pool2 = |v: usize| if v >= 2 { (v - 2) / 2 + 1 } else { v };
    let mut spatial = pool2(pool2(pool2(size)));
    if spatial >= 2 {
        spatial = pool2(spatial);
    }
    let feat_in = ch_b.total() * spatial * spatial;
    let feat = (ch_b.total() * 3).max(16);
    let mut dense = Dense::new(feat_in, feat, &mut rng);
    let flat = Tensor::full(&[n, feat_in], 0.1);
    let dense_s = time_layer(&mut dense, &flat, &mut ws)?;
    m.insert("nn.conv_stem_us", stem_s * 1e6);
    m.insert("nn.inception_a_us", a_s * 1e6);
    m.insert("nn.inception_b_us", b_s * 1e6);
    m.insert("nn.dense_feat_us", dense_s * 1e6);

    let (hw0, hw1, hw2) = (size * size, (size / 2).pow(2), (size / 4).pow(2));
    let cnn_flops = 2 * hw0 * 9 * c_stem
        + inception_flops(c_stem, &ch_a, hw1)
        + inception_flops(ch_a.total(), &ch_b, hw2)
        + 2 * feat_in * feat
        + 2 * feat * CLASSES;
    m.insert("nn.cnn_flops_per_frame", cnn_flops as f64);
    m.insert(
        "tensor.peak_ratio.cnn",
        cnn_flops as f64 / cnn_s / 1e9 / peak_gflops,
    );

    // The BiLSTM stack's layers.
    let h = spec.rnn_hidden;
    let mut l1 = BiLstm::new(IMU_FEATURES, h, &mut rng);
    let l1_s = time(|| {
        let out = l1.forward_seq_into(windows, Mode::Eval, &mut ws)?;
        ws.restore(out);
        Ok(())
    })?;
    m.insert("nn.bilstm_l1_us", l1_s * 1e6);
    let mut rnn_flops = 2 * WINDOW_LEN * 2 * (IMU_FEATURES * 4 * h + h * 4 * h);
    if spec.rnn_depth > 1 {
        let mut l2 = BiLstm::new(2 * h, h, &mut rng);
        let x2 = l1.forward_seq(windows, Mode::Eval)?;
        let l2_s = time(|| {
            let out = l2.forward_seq_into(&x2, Mode::Eval, &mut ws)?;
            ws.restore(out);
            Ok(())
        })?;
        m.insert("nn.bilstm_l2_us", l2_s * 1e6);
        rnn_flops += (spec.rnn_depth - 1) * 2 * WINDOW_LEN * 2 * (2 * h * 4 * h + h * 4 * h);
    }
    rnn_flops += 2 * 2 * h * 3;
    m.insert("nn.rnn_flops_per_window", rnn_flops as f64);
    m.insert(
        "tensor.peak_ratio.rnn",
        rnn_flops as f64 / rnn_s / 1e9 / peak_gflops,
    );

    // The GEMM shapes those layers lower to, and the stem's im2col.
    m.insert(
        "tensor.matmul_gflops.conv_stem",
        gemm_gflops(n * hw0, 9, c_stem)?,
    );
    m.insert(
        "tensor.matmul_gflops.incep_b3",
        gemm_gflops(n * hw2, ch_b.c3_reduce * 9, ch_b.c3)?,
    );
    m.insert(
        "tensor.matmul_gflops.lstm_wx",
        gemm_gflops(n, IMU_FEATURES, 4 * h)?,
    );
    m.insert("tensor.matmul_gflops.lstm_wh", gemm_gflops(n, h, 4 * h)?);
    m.insert(
        "tensor.matmul_gflops.dense_feat",
        gemm_gflops(n, feat_in, feat)?,
    );
    let stem_spec = Conv2dSpec::square(1, c_stem, 3, 1, 1);
    let mut cols = Tensor::zeros(&[n * hw0, stem_spec.patch_len()]);
    let par = Parallelism::serial();
    let im2col_s = time(|| Ok(im2col_into(&frames, &stem_spec, &par, &mut cols)?))?;
    m.insert(
        "tensor.im2col_gbps.stem",
        (4 * (frames.len() + cols.len())) as f64 / im2col_s / 1e9,
    );
    Ok(())
}

/// Replays captured messages through the collect-side functions that run
/// inside `offer_at` and — when the workload aligns an IMU grid at all
/// (`align`) — inside `aligned_imu`, one layer at a time.
pub fn collect_layers(
    messages: &[Message],
    align: bool,
    m: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let batches: Vec<Batch> = messages
        .iter()
        .map(|msg| decode_batch(msg.bytes.clone()))
        .collect::<Result<_, _>>()?;
    if batches.is_empty() {
        return Ok(());
    }
    let per_msg = |s: f64| s * 1e6 / batches.len() as f64;

    let encode_s = time(|| {
        for b in &batches {
            black_box(encode_batch(b));
        }
        Ok(())
    })?;
    m.insert("wire.encode_us_per_msg", per_msg(encode_s));

    // `Wal::append` on its own, to memory and to a real directory.
    let mem_s = time(|| append_all(Arc::new(MemStorage::new()), &batches))?;
    m.insert("wal.append_us_per_msg", per_msg(mem_s));
    let dir = std::path::Path::new("benchmark/out/wal-dir");
    let dir_s = time(|| {
        // A fresh directory per repetition: appends, not rewrites.
        let _ = std::fs::remove_dir_all(dir);
        append_all(Arc::new(DirStorage::create(dir)?), &batches)
    });
    let _ = std::fs::remove_dir_all(dir);
    m.insert("wal.dir_append_us_per_msg", per_msg(dir_s?));

    // TSDB inserts and the alignment kernels over the same IMU readings.
    let observations: Vec<(f64, Vec<f32>)> = batches
        .iter()
        .flat_map(|b| &b.readings)
        .filter_map(|r| match &r.reading {
            SensorReading::Imu(s) => Some((r.timestamp, s.to_features().to_vec())),
            SensorReading::Frame(_) => None,
        })
        .collect();
    if observations.is_empty() {
        return Ok(());
    }
    let insert_s = time(|| {
        let db = TsDb::new();
        for (t, feats) in &observations {
            db.insert_vector("imu", *t, feats);
        }
        Ok(db.point_count())
    })?;
    m.insert(
        "tsdb.insert_us_per_reading",
        insert_s * 1e6 / observations.len() as f64,
    );
    if !align {
        return Ok(());
    }
    let (t0, t1) = observations
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (t, _)| {
            (lo.min(*t), hi.max(*t))
        });
    let grid = GridSpec {
        start: t0,
        end: t1,
        hz: ControllerConfig::default().grid_hz,
    };
    let points = grid.points().len().max(1) as f64;
    let interp_s = time(|| Ok(interpolate_grid(&observations, &grid)))?;
    m.insert("align.interpolate_us_per_point", interp_s * 1e6 / points);
    let interpolated = interpolate_grid(&observations, &grid);
    let window = ControllerConfig::default().smoothing_window;
    let smooth_s = time(|| Ok(moving_average(&interpolated, window)))?;
    m.insert("align.moving_average_us_per_point", smooth_s * 1e6 / points);
    Ok(())
}

fn append_all(storage: Arc<dyn WalStorage>, batches: &[Batch]) -> Res<()> {
    let (_, mut wal, _) = wal::open(ControllerConfig::default(), storage, WalConfig::default())?;
    for (i, b) in batches.iter().enumerate() {
        wal.append(i as f64, b)?;
    }
    Ok(())
}

/// Serial ÷ parallel drain time of one fleet tick on fresh shards. With a
/// single hardware thread the ratio says nothing about the code, so it is
/// reported as 0.
pub fn parallel_drain_speedup(messages: &[Message], shards: usize) -> Res<f64> {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return Ok(0.0);
    }
    let batches: Vec<(f64, Batch)> = messages
        .iter()
        .map(|msg| Ok((msg.arrival, decode_batch(msg.bytes.clone())?)))
        .collect::<Res<_>>()?;
    let run = |parallel: bool| -> Res<f64> {
        let mut samples = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let (mut sharded, _) = fleet::open(shards)?;
            // Half a tick: a whole one would overflow the shard queues.
            for (arrival, batch) in batches.iter().take(batches.len() / 2) {
                sharded.offer_at(*arrival, batch);
            }
            let start = Instant::now();
            if parallel {
                black_box(sharded.drain_parallel()?);
            } else {
                black_box(sharded.drain()?);
            }
            samples.push(start.elapsed().as_secs_f64());
        }
        Ok(median(&mut samples))
    };
    let serial = run(false)?;
    let parallel = run(true)?;
    Ok(serial / parallel)
}
