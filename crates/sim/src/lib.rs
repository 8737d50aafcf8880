//! # darnet-sim
//!
//! A deterministic synthetic driving world standing in for the DarNet
//! paper's private data-collection campaigns (see `DESIGN.md` §2 for the
//! substitution rationale).
//!
//! The crate models:
//!
//! * a **cabin behaviour taxonomy** ([`CanonicalBehavior`]): the paper's
//!   six Table-1 classes ([`CanonicalBehavior::TABLE1`]) plus two
//!   drowsiness classes (eye closure, head droop); the 18-class extended
//!   taxonomy ([`ExtendedBehavior`]) used by the privacy (dCNN) study; and
//!   the 3-class phone-orientation taxonomy ([`ImuClass`]) the IMU models
//!   see;
//! * **driver identities** ([`DriverProfile`]) with pose/texture quirks so
//!   that an over-fitted CNN can latch onto identity cues;
//! * **vehicle dynamics** ([`VehicleDynamics`]) — a deterministic route of
//!   accelerate/cruise/turn/brake segments that leaks into every IMU
//!   channel as common-mode motion;
//! * a **frame renderer** ([`FrameRenderer`]) drawing grayscale driver
//!   frames whose class geometry mirrors the paper's camera view (hands,
//!   phone, cup, reaching pose, drooping head, closing eyes, ...),
//!   deliberately making texting/talking/normal visually similar (as in
//!   the paper's CNN confusion matrix) while the IMU disambiguates them,
//!   plus a second **side camera view**
//!   ([`DrivingWorld::render_side_frame`]) where drowsiness shows;
//! * an **IMU synthesizer** ([`ImuSynthesizer`]) producing accelerometer /
//!   gyroscope / gravity / rotation channels at the paper's 25 ms cadence,
//!   with drowsy steering micro-corrections;
//! * **session scripting** ([`schedule::build_schedule`]) reproducing the
//!   collection protocol: 5 drivers, scripted 15 s distraction segments,
//!   class durations proportional to Table 1, and an optional drowsiness
//!   budget — the multi-stream proving ground for the N-stream modality
//!   registry in `darnet-core`.
//!
//! Everything is seeded and reproducible.
//!
//! ```
//! use darnet_sim::{CanonicalBehavior, DrivingWorld, WorldConfig};
//!
//! let world = DrivingWorld::new(WorldConfig::default());
//! let frame = world.render_canonical_frame(0, CanonicalBehavior::Texting, 1.25);
//! assert_eq!(frame.width(), 48);
//! let imu = world.imu_sample_canonical(0, CanonicalBehavior::Texting, 1.25);
//! assert_eq!(imu.to_features().len(), 12);
//! ```
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: synthetic driving data is randomness by design"
)]

mod behavior;
mod driver;
mod imu;
mod render;
pub mod schedule;
mod vehicle;
mod world;

pub use behavior::{CanonicalBehavior, ExtendedBehavior, ImuClass};
pub use darnet_pure::{Canvas, Frame, ImuSample};
pub use driver::DriverProfile;
pub use imu::ImuSynthesizer;
pub use render::FrameRenderer;
pub use schedule::{ScheduleConfig, Segment};
pub use vehicle::{VehicleDynamics, VehicleState};
pub use world::{DrivingWorld, WorldConfig};
