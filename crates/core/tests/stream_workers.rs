//! The engine's resident stream workers leave with it: dropping an engine
//! whose calls fanned out joins every worker thread. Alone in its test
//! binary, so that no other test's threads move the count.

use darnet_collect::StreamId;
use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet_core::registry::FAN_OUT_MIN_FLOPS;
use darnet_core::{
    CnnConfig, CombinerKind, FrameCnn, ImuRnn, ModalityDescriptor, MultiModalEngine, RnnConfig,
    StreamInput, StreamModelSlot,
};
use darnet_sim::Frame;
use darnet_tensor::{Parallelism, Tensor};

#[cfg(target_os = "linux")]
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test reads the kernel's thread list of its own process"
)]
fn dropping_a_fanned_engine_joins_its_workers() {
    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let cnn = FrameCnn::new(
        CnnConfig {
            input_size: 24,
            classes: 6,
            width: 0.5,
            ..CnnConfig::default()
        },
        1,
    );
    let mut rnn = ImuRnn::new(
        RnnConfig {
            hidden: 4,
            depth: 1,
            ..RnnConfig::default()
        },
        2,
    );
    let x = Tensor::ones(&[6, WINDOW_LEN, IMU_FEATURES]);
    rnn.fit(&x, &[0, 1, 2, 0, 1, 2], 1).unwrap();
    let lightest = cnn.flops_per_frame().min(rnn.flops_per_window());
    let n = FAN_OUT_MIN_FLOPS.div_ceil(lightest);
    let frames = vec![Frame::new(24, 24); n];
    let windows = Tensor::zeros(&[n, WINDOW_LEN, IMU_FEATURES]);
    let inputs = [
        (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
        (StreamId::IMU, StreamInput::Windows(&windows)),
    ];
    let before = threads();
    let mut engine = MultiModalEngine::new(6, CombinerKind::Product);
    let camera = ModalityDescriptor::darnet_camera();
    engine.register(camera, StreamModelSlot::Cnn(cnn)).unwrap();
    let imu = ModalityDescriptor::darnet_imu();
    engine.register(imu, StreamModelSlot::Rnn(rnn)).unwrap();
    engine.set_parallelism(Parallelism::new(3));
    let mut out = Vec::new();
    for _ in 0..3 {
        engine.classify_batch_into(&inputs, &mut out).unwrap();
    }
    // Two streams make two groups: one worker, started once, kept.
    assert_eq!(engine.fanned_calls(), 3);
    assert_eq!(threads(), before + 1);
    drop(engine);
    assert_eq!(threads(), before);
}
