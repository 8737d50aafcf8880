//! Property-based tests for the synthetic world.

use darnet_sim::schedule::{build_schedule, class_durations, ScheduleConfig, TABLE1_FRAME_COUNTS};
use darnet_sim::{
    CanonicalBehavior, DriverProfile, DrivingWorld, Frame, FrameRenderer, WorldConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn frames_are_always_valid_images(
        driver_id in 0usize..5,
        class in 0usize..8,
        t in 0.0f64..500.0,
        seed in 0u64..50,
    ) {
        let renderer = FrameRenderer::new(seed);
        let driver = DriverProfile::generate(driver_id, seed);
        let behavior = CanonicalBehavior::from_index(class).unwrap();
        let frame = renderer.render(&driver, behavior, t);
        prop_assert_eq!(frame.pixels().len(), 48 * 48);
        prop_assert!(frame.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Frames are never blank.
        prop_assert!(frame.mean() > 0.01);
    }

    #[test]
    fn imu_samples_are_always_finite(
        driver_id in 0usize..5,
        class in 0usize..8,
        t in 0.0f64..500.0,
    ) {
        let world = DrivingWorld::new(WorldConfig::default());
        let behavior = CanonicalBehavior::from_index(class).unwrap();
        let sample = world.imu_sample_canonical(driver_id, behavior, t);
        prop_assert!(sample.to_features().iter().all(|v| v.is_finite()));
        // Gravity magnitude stays physical.
        let mag: f32 = sample.gravity.iter().map(|v| v * v).sum::<f32>().sqrt();
        prop_assert!((5.0..15.0).contains(&mag));
    }

    #[test]
    fn schedule_preserves_table1_proportions(scale in 0.01f64..0.3, drivers in 1usize..8) {
        let config = ScheduleConfig { drivers, scale, ..ScheduleConfig::default() };
        let segments = build_schedule(&config);
        let durations = class_durations(&segments);
        // Ratios between classes track the paper's ratios.
        let total: f64 = durations.iter().sum();
        let paper_total: f64 = TABLE1_FRAME_COUNTS.iter().sum::<usize>() as f64;
        for (i, &frames) in TABLE1_FRAME_COUNTS.iter().enumerate() {
            let got = durations[i] / total;
            let want = frames as f64 / paper_total;
            prop_assert!((got - want).abs() < 0.01, "class {} share {} vs {}", i, got, want);
        }
    }

    #[test]
    fn world_is_a_pure_function_of_inputs(
        driver_id in 0usize..3,
        class in 0usize..8,
        t in 0.0f64..100.0,
    ) {
        let w1 = DrivingWorld::new(WorldConfig::default());
        let w2 = DrivingWorld::new(WorldConfig::default());
        let behavior = CanonicalBehavior::from_index(class).unwrap();
        prop_assert_eq!(
            w1.render_canonical_frame(driver_id, behavior, t),
            w2.render_canonical_frame(driver_id, behavior, t)
        );
        prop_assert_eq!(
            w1.render_side_frame(driver_id, behavior, t),
            w2.render_side_frame(driver_id, behavior, t)
        );
        prop_assert_eq!(
            w1.imu_sample_canonical(driver_id, behavior, t),
            w2.imu_sample_canonical(driver_id, behavior, t)
        );
    }

    // A clone shares its pixels until one side is written to: no write
    // through one handle may show through another, and equality is about
    // pixel values, never about which buffer holds them.
    #[test]
    fn a_cloned_frame_is_never_changed_through_its_clone(
        pixels in prop::collection::vec(0.0f32..1.0, 12),
        writes in prop::collection::vec((0usize..4, 0isize..4, 0isize..3, 0.0f32..1.0), 1..6),
    ) {
        let original = Frame::from_pixels(4, 3, pixels.clone());
        let untouched = Frame::from_pixels(4, 3, pixels);
        let mut copy = original.clone();
        prop_assert_eq!(&copy, &original);
        let mut expected = original.pixels().to_vec();
        for (how, x, y, value) in writes {
            let at = y as usize * 4 + x as usize;
            match how {
                0 => {
                    copy.put(x, y, value);
                    expected[at] = value;
                }
                1 => {
                    copy.blend(x, y, value, 0.5);
                    expected[at] = (expected[at] * 0.5 + value * 0.5).clamp(0.0, 1.0);
                }
                2 => {
                    copy.canvas().put(x, y, value);
                    expected[at] = value;
                }
                _ => {
                    copy.pixels_mut()[at] = value;
                    expected[at] = value;
                }
            }
            prop_assert_eq!(&original, &untouched);
        }
        prop_assert_eq!(copy.pixels(), &expected[..]);
        // Equal values in separate buffers are equal frames; a frame
        // differing in one pixel is not, shared history or none.
        prop_assert_eq!(&copy, &Frame::from_pixels(4, 3, expected.clone()));
        expected[0] = if expected[0] == 0.25 { 0.75 } else { 0.25 };
        prop_assert_ne!(&copy, &Frame::from_pixels(4, 3, expected));
    }

    #[test]
    fn downsampling_preserves_pixel_value_range(
        new_size in 1usize..48,
        seed in 0u64..50,
    ) {
        let renderer = FrameRenderer::new(seed);
        let driver = DriverProfile::generate(0, seed);
        let frame = renderer.render(&driver, CanonicalBehavior::Talking, 1.0);
        let down = frame.downsample_nearest(new_size, new_size);
        prop_assert_eq!(down.width(), new_size);
        // Nearest-neighbour only selects existing pixel values.
        for &p in down.pixels() {
            prop_assert!(frame.pixels().contains(&p));
        }
    }
}
