//! # darnet-sim
//!
//! A deterministic synthetic driving world standing in for the DarNet
//! paper's private data-collection campaigns (see `DESIGN.md` §2 for the
//! substitution rationale).
//!
//! The crate models:
//!
//! * a **behaviour taxonomy** ([`Behavior`]) matching the paper's Table 1
//!   (6 classes), plus the 18-class extended taxonomy
//!   ([`ExtendedBehavior`]) used by the privacy (dCNN) study, and the
//!   3-class phone-orientation taxonomy ([`ImuClass`]) the IMU models see;
//! * **driver identities** ([`DriverProfile`]) with pose/texture quirks so
//!   that an over-fitted CNN can latch onto identity cues;
//! * **vehicle dynamics** ([`VehicleDynamics`]) — a deterministic route of
//!   accelerate/cruise/turn/brake segments that leaks into every IMU
//!   channel as common-mode motion;
//! * a **frame renderer** ([`FrameRenderer`]) drawing grayscale driver
//!   frames whose class geometry mirrors the paper's camera view (hands,
//!   phone, cup, reaching pose, ...), deliberately making
//!   texting/talking/normal visually similar (as in the paper's CNN
//!   confusion matrix) while the IMU disambiguates them;
//! * an **IMU synthesizer** ([`ImuSynthesizer`]) producing accelerometer /
//!   gyroscope / gravity / rotation channels at the paper's 25 ms cadence;
//! * **session scripting** ([`schedule::build_schedule`]) reproducing the
//!   collection protocol: 5 drivers, scripted 15 s distraction segments,
//!   class durations proportional to Table 1;
//! * an **8-class canonical taxonomy** ([`CanonicalBehavior`]) layering
//!   two drowsiness classes (eye closure, head droop) over Table 1, with
//!   a second **side camera view** ([`DrivingWorld::render_side_frame`])
//!   and drowsy IMU micro-corrections — the multi-stream proving ground
//!   for the N-stream modality registry in `darnet-core`.
//!
//! Everything is seeded and reproducible.
//!
//! ```
//! use darnet_sim::{Behavior, DrivingWorld, WorldConfig};
//!
//! let world = DrivingWorld::new(WorldConfig::default());
//! let frame = world.render_frame(0, Behavior::Texting, 1.25);
//! assert_eq!(frame.width(), 48);
//! let imu = world.imu_sample(0, Behavior::Texting, 1.25);
//! assert_eq!(imu.to_features().len(), 12);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

mod behavior;
mod driver;
mod frame;
mod imu;
mod render;
pub mod schedule;
mod vehicle;
mod world;

pub use behavior::{Behavior, CanonicalBehavior, ExtendedBehavior, ImuClass};
pub use driver::DriverProfile;
pub use frame::{Canvas, Frame};
pub use imu::{ImuSample, ImuSynthesizer};
pub use render::FrameRenderer;
pub use schedule::{ScheduleConfig, Segment};
pub use vehicle::{VehicleDynamics, VehicleState};
pub use world::{DrivingWorld, WorldConfig};
