//! Middleware microbenchmarks: controller ingest, interpolation +
//! smoothing, clock sync, and TSDB operations.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use darnet_collect::{
    interpolate_grid, moving_average, Batch, Controller, ControllerConfig, DriftClock, GridSpec,
    SensorReading, StampedReading, TsDb,
};
use darnet_sim::ImuSample;

fn imu_batch(n: usize) -> Batch {
    Batch {
        agent_id: 0,
        seq: 0,
        readings: (0..n)
            .map(|i| StampedReading {
                timestamp: i as f64 * 0.025,
                reading: SensorReading::Imu(ImuSample {
                    accel: [0.1, 0.2, 9.8],
                    gyro: [0.0; 3],
                    gravity: [0.0, 0.0, 9.8],
                    rotation: [0.0; 3],
                }),
            })
            .collect(),
    }
}

fn bench_ingest(c: &mut Criterion) {
    let batch = imu_batch(20);
    c.bench_function("controller ingest 20-reading batch", |bench| {
        bench.iter(|| {
            let mut controller = Controller::new(ControllerConfig::default());
            let outcome = controller.offer_at(0.5, black_box(&batch), None);
            black_box((controller, outcome))
        })
    });
}

fn bench_alignment(c: &mut Criterion) {
    let observations: Vec<(f64, Vec<f32>)> = (0..1000)
        .map(|i| (i as f64 * 0.025, vec![i as f32; 12]))
        .collect();
    let grid = GridSpec {
        start: 0.0,
        end: 25.0,
        hz: 4.0,
    };
    c.bench_function("interpolate 1000 obs -> 4 Hz grid", |bench| {
        bench.iter(|| black_box(interpolate_grid(&observations, &grid)))
    });
    let series: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32; 12]).collect();
    c.bench_function("moving average window 3 x 100", |bench| {
        bench.iter(|| black_box(moving_average(&series, 3)))
    });
}

fn bench_clock(c: &mut Criterion) {
    c.bench_function("clock sync round", |bench| {
        bench.iter(|| {
            let mut clock = DriftClock::new(100e-6, 0.25);
            clock.apply_sync(black_box(10.0), 9.98, 0.02);
            black_box(clock.now(10.5))
        })
    });
}

fn bench_tsdb(c: &mut Criterion) {
    c.bench_function("tsdb insert 1000 points", |bench| {
        bench.iter(|| {
            let db = TsDb::new();
            for i in 0..1000 {
                db.insert("m", i as f64, i as f32);
            }
            black_box(db)
        })
    });
    let db = TsDb::new();
    for i in 0..10_000 {
        db.insert("m", i as f64, i as f32);
    }
    c.bench_function("tsdb range query over 10k points", |bench| {
        bench.iter(|| black_box(db.query_range("m", 2500.0, 7500.0).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_ingest,
    bench_alignment,
    bench_clock,
    bench_tsdb
);
criterion_main!(benches);
