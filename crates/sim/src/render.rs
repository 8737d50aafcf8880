//! Parametric driver-frame renderer.
//!
//! Frames are 48×48 grayscale pictures of a driver seen from a dash-mounted
//! camera: steering wheel lower-left, head upper-center, torso below it,
//! arms drawn as thick line segments toward per-behaviour hand positions,
//! plus behaviour props (phone, cup, ...).
//!
//! Two deliberate properties shape the learning problem the way the paper
//! reports it:
//!
//! 1. **Texting / talking / normal look similar.** The phone is a small,
//!    low-contrast prop and the arm poses overlap, so a frame-only CNN
//!    confuses exactly these three classes (paper Figure 5c), while the
//!    IMU stream separates them.
//! 2. **Identity is carried by high-frequency texture.** Each driver's
//!    clothing has a fine stripe pattern that survives full resolution but
//!    not down-sampling, allowing an over-fitted teacher CNN to use
//!    identity cues that the distilled dCNN students cannot (paper §5.3).

use darnet_tensor::SplitMix64;

use crate::behavior::{CanonicalBehavior, ExtendedBehavior};
use crate::driver::DriverProfile;
use crate::{Canvas, Frame};

/// Props a hand can hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Prop {
    /// Mobile phone (small dim rectangle).
    Phone,
    /// Cup / bottle (tall bright rectangle).
    Cup,
    /// Food item (bright blob).
    Food,
    /// Cigarette (thin bright line).
    Cigarette,
    /// Hair brush (medium rectangle above head).
    Brush,
}

/// Fully specifies a rendered pose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PoseSpec {
    /// Right-hand position (pixels).
    pub right_hand: (f32, f32),
    /// Left-hand position (pixels).
    pub left_hand: (f32, f32),
    /// Prop carried by the right hand.
    pub prop: Option<Prop>,
    /// Prop intensity (contrast against the body).
    pub prop_intensity: f32,
    /// Head tilt in pixels (positive = down).
    pub head_tilt: f32,
    /// Head turn in pixels (positive = toward passenger side).
    pub head_turn: f32,
    /// Torso lean in pixels (positive = toward passenger side).
    pub lean: f32,
}

const WHEEL_LEFT: (f32, f32) = (10.0, 35.0);
const WHEEL_RIGHT: (f32, f32) = (19.0, 36.0);

/// The base pose of a cabin class, before [`ambiguate`].
pub(crate) fn pose_for(class: CanonicalBehavior) -> PoseSpec {
    match class {
        CanonicalBehavior::NormalDriving => PoseSpec {
            right_hand: WHEEL_RIGHT,
            left_hand: WHEEL_LEFT,
            prop: None,
            prop_intensity: 0.0,
            head_tilt: 0.0,
            head_turn: 0.0,
            lean: 0.0,
        },
        // Phone at the ear: prop is small and partially occluded by the
        // head, arm bent upward — at 48x48 the silhouette stays close to
        // normal driving.
        CanonicalBehavior::Talking => PoseSpec {
            right_hand: (29.0, 15.0),
            left_hand: WHEEL_LEFT,
            prop: Some(Prop::Phone),
            prop_intensity: 0.12,
            head_tilt: 0.0,
            head_turn: 1.0,
            lean: 0.0,
        },
        // Phone near the waist: small low-contrast prop against the torso,
        // slight head-down tilt.
        CanonicalBehavior::Texting => PoseSpec {
            right_hand: (25.0, 29.0),
            left_hand: WHEEL_LEFT,
            prop: Some(Prop::Phone),
            prop_intensity: 0.12,
            head_tilt: 1.5,
            head_turn: 0.0,
            lean: 0.0,
        },
        // Bright cup at the mouth: visually distinctive.
        CanonicalBehavior::EatingDrinking => PoseSpec {
            right_hand: (27.0, 17.0),
            left_hand: WHEEL_LEFT,
            prop: Some(Prop::Cup),
            prop_intensity: 0.45,
            head_tilt: -0.5,
            head_turn: 0.0,
            lean: 0.0,
        },
        // Hand above the head: a high edge no other class has.
        CanonicalBehavior::HairMakeup => PoseSpec {
            right_hand: (25.0, 6.0),
            left_hand: WHEEL_LEFT,
            prop: Some(Prop::Brush),
            prop_intensity: 0.35,
            head_tilt: -1.0,
            head_turn: 0.0,
            lean: 0.0,
        },
        // Arm fully extended to the passenger side with a body lean.
        CanonicalBehavior::Reaching => PoseSpec {
            right_hand: (44.0, 24.0),
            left_hand: WHEEL_LEFT,
            prop: None,
            prop_intensity: 0.0,
            head_tilt: 0.5,
            head_turn: 3.0,
            lean: 3.5,
        },
        // Drowsiness: hands stay on the wheel (the silhouette is a
        // near-normal driving pose — the discriminative cue is the
        // face/head, which the dash view carries weakly and the side view
        // strongly).
        CanonicalBehavior::EyesClosing => PoseSpec {
            right_hand: WHEEL_RIGHT,
            left_hand: WHEEL_LEFT,
            prop: None,
            prop_intensity: 0.0,
            head_tilt: 1.0,
            head_turn: 0.0,
            lean: 0.0,
        },
        CanonicalBehavior::HeadDroop => PoseSpec {
            right_hand: WHEEL_RIGHT,
            left_hand: WHEEL_LEFT,
            prop: None,
            prop_intensity: 0.0,
            head_tilt: 4.5,
            head_turn: 0.0,
            lean: 0.5,
        },
    }
}

/// Injects the class-conditional per-frame variation and returns the
/// eyelid-closure degree in `[0, 1]` (0 = eyes open, drawn as no overlay;
/// always 0 for the Table-1 classes).
///
/// Normal / talking / texting draw the right hand from overlapping
/// regions, so at 48×48 the only reliable cue separating them is the
/// faint phone — which the paper's CNN also struggles with (Figure 5c).
/// Eye closure oscillates — drowsy drivers blink open — so a minority of
/// `EyesClosing` frames are nearly indistinguishable from normal driving
/// in the dash view, which is exactly the occlusion regime where the
/// side-view stream earns its keep.
pub(crate) fn ambiguate(
    pose: &mut PoseSpec,
    class: CanonicalBehavior,
    rng: &mut SplitMix64,
) -> f32 {
    const WAIST: (f32, f32) = (25.0, 28.0);
    const FACE: (f32, f32) = (28.0, 16.0);
    // Shared right-hand mixture for the three phone-relevant classes: the
    // paper's texting orientation spans "waist and eye level", talking sits
    // at the ear, and normal driving includes resting/touching-face poses —
    // so the *silhouette* alone cannot separate them. Only the faint phone
    // placement can.
    let mixture = |rng: &mut SplitMix64, w_wheel: f32, w_waist: f32| -> (u8, (f32, f32)) {
        let u = rng.next_f32();
        if u < w_wheel {
            (
                0,
                (
                    WHEEL_RIGHT.0 + rng.uniform(-1.5, 1.5),
                    WHEEL_RIGHT.1 + rng.uniform(-1.5, 1.5),
                ),
            )
        } else if u < w_wheel + w_waist {
            (
                1,
                (
                    WAIST.0 + rng.uniform(-4.0, 4.0),
                    WAIST.1 + rng.uniform(-4.0, 4.0),
                ),
            )
        } else {
            (
                2,
                (
                    FACE.0 + rng.uniform(-3.0, 3.0),
                    FACE.1 + rng.uniform(-3.0, 3.0),
                ),
            )
        }
    };
    match class {
        CanonicalBehavior::NormalDriving => {
            let (_, hand) = mixture(rng, 0.5, 0.25);
            pose.right_hand = hand;
            pose.prop = None;
            pose.head_tilt = rng.uniform(-1.5, 1.5);
            pose.head_turn = rng.uniform(-1.0, 1.5);
        }
        CanonicalBehavior::Texting => {
            let (region, hand) = mixture(rng, 0.2, 0.6);
            pose.right_hand = hand;
            pose.head_tilt = rng.uniform(-1.5, 1.5);
            pose.head_turn = rng.uniform(-1.0, 1.5);
            // The phone is visible only in the active waist pose, and even
            // then lighting/occlusion make it a weak cue.
            if region == 1 && rng.next_f32() < 0.8 {
                pose.prop = Some(Prop::Phone);
                pose.prop_intensity = rng.uniform(0.08, 0.16);
            } else {
                pose.prop = None;
            }
        }
        CanonicalBehavior::Talking => {
            let (region, hand) = mixture(rng, 0.2, 0.2);
            pose.right_hand = hand;
            pose.head_tilt = rng.uniform(-1.5, 1.5);
            pose.head_turn = rng.uniform(-1.0, 1.5);
            if region == 2 && rng.next_f32() < 0.8 {
                pose.prop = Some(Prop::Phone);
                pose.prop_intensity = rng.uniform(0.08, 0.16);
            } else {
                pose.prop = None;
            }
        }
        // Eating: hand near the mouth with a mostly-visible bright cup.
        CanonicalBehavior::EatingDrinking => {
            pose.right_hand = (27.0 + rng.uniform(-2.0, 2.0), 17.0 + rng.uniform(-2.0, 2.0));
            pose.head_tilt = rng.uniform(-1.0, 0.5);
            pose.head_turn = rng.uniform(-0.5, 1.0);
            pose.prop_intensity = rng.uniform(0.25, 0.50);
            if rng.next_f32() < 0.08 {
                pose.prop = None;
            }
        }
        // Hair/makeup: hand anywhere between crown and ear level.
        CanonicalBehavior::HairMakeup => {
            pose.right_hand = (25.5 + rng.uniform(-2.5, 2.5), 7.0 + rng.uniform(-1.5, 3.0));
            pose.head_tilt += rng.uniform(-1.0, 1.0);
            pose.prop_intensity = rng.uniform(0.20, 0.40);
            if rng.next_f32() < 0.08 {
                pose.prop = None;
            }
        }
        // Reaching is a sweep: early-reach frames sit close to a normal
        // driving pose (the paper's CNN misclassifies reaching as normal).
        CanonicalBehavior::Reaching => {
            // Bias toward the extended phase; only a minority of frames
            // catch the ambiguous start of the sweep.
            let progress = rng.next_f32().sqrt();
            pose.right_hand = (
                26.0 + 18.0 * progress + rng.uniform(-2.0, 2.0),
                30.0 - 7.0 * progress + rng.uniform(-2.0, 2.0),
            );
            pose.lean = 3.5 * progress;
            pose.head_turn = 3.0 * progress + rng.uniform(-1.0, 1.0);
            pose.head_tilt = rng.uniform(-1.0, 1.0);
        }
        CanonicalBehavior::EyesClosing => {
            pose.head_tilt += rng.uniform(-0.5, 1.0);
            pose.head_turn += rng.uniform(-0.8, 0.8);
            return if rng.next_f32() < 0.15 {
                // Momentarily blinked open.
                rng.uniform(0.05, 0.25)
            } else {
                rng.uniform(0.55, 0.95)
            };
        }
        CanonicalBehavior::HeadDroop => {
            pose.head_tilt += rng.uniform(-0.5, 2.0);
            pose.head_turn += rng.uniform(-1.0, 1.0);
            pose.lean += rng.uniform(-0.3, 0.8);
            return rng.uniform(0.7, 1.0);
        }
    }
    0.0
}

pub(crate) fn pose_for_extended(b: ExtendedBehavior) -> PoseSpec {
    use ExtendedBehavior as E;
    match b {
        E::NormalDriving => pose_for(CanonicalBehavior::NormalDriving),
        E::TalkingRight => pose_for(CanonicalBehavior::Talking),
        E::TalkingLeft => {
            let mut p = pose_for(CanonicalBehavior::Talking);
            // Mirror the phone arm to the left ear; right hand returns to
            // the wheel.
            p.left_hand = (18.0, 14.0);
            p.right_hand = WHEEL_RIGHT;
            p.head_turn = -1.0;
            p
        }
        E::TextingRight => pose_for(CanonicalBehavior::Texting),
        E::TextingLeft => {
            let mut p = pose_for(CanonicalBehavior::Texting);
            p.left_hand = (21.0, 29.0);
            p.right_hand = WHEEL_RIGHT;
            p
        }
        E::PhoneOnDash => PoseSpec {
            right_hand: (34.0, 33.0),
            left_hand: WHEEL_LEFT,
            prop: Some(Prop::Phone),
            prop_intensity: 0.3,
            head_tilt: 1.0,
            head_turn: 2.0,
            lean: 0.5,
        },
        E::Drinking => pose_for(CanonicalBehavior::EatingDrinking),
        E::Eating => {
            let mut p = pose_for(CanonicalBehavior::EatingDrinking);
            p.prop = Some(Prop::Food);
            p.right_hand = (26.0, 18.0);
            p
        }
        E::Smoking => PoseSpec {
            right_hand: (30.0, 18.0),
            left_hand: WHEEL_LEFT,
            prop: Some(Prop::Cigarette),
            prop_intensity: 0.7,
            head_tilt: 0.0,
            head_turn: 0.5,
            lean: 0.0,
        },
        E::Hair => pose_for(CanonicalBehavior::HairMakeup),
        E::Makeup => {
            let mut p = pose_for(CanonicalBehavior::HairMakeup);
            p.right_hand = (26.0, 11.0);
            p.head_tilt = -0.3;
            p
        }
        E::ReachingSide => pose_for(CanonicalBehavior::Reaching),
        E::ReachingBack => {
            let mut p = pose_for(CanonicalBehavior::Reaching);
            p.right_hand = (41.0, 12.0);
            p.head_turn = 4.0;
            p.lean = 2.5;
            p
        }
        E::AdjustingRadio => PoseSpec {
            right_hand: (35.0, 42.0),
            left_hand: WHEEL_LEFT,
            prop: None,
            prop_intensity: 0.0,
            head_tilt: 2.0,
            head_turn: 1.5,
            lean: 1.0,
        },
        E::AdjustingNavigation => PoseSpec {
            right_hand: (40.0, 28.0),
            left_hand: WHEEL_LEFT,
            prop: None,
            prop_intensity: 0.0,
            head_tilt: 1.5,
            head_turn: 2.5,
            lean: 1.5,
        },
        E::TalkingToPassenger => PoseSpec {
            right_hand: WHEEL_RIGHT,
            left_hand: WHEEL_LEFT,
            prop: None,
            prop_intensity: 0.0,
            head_tilt: 0.0,
            head_turn: 5.0,
            lean: 1.0,
        },
        E::LookingBack => PoseSpec {
            right_hand: WHEEL_RIGHT,
            left_hand: WHEEL_LEFT,
            prop: None,
            prop_intensity: 0.0,
            head_tilt: -1.0,
            head_turn: 6.0,
            lean: 2.0,
        },
        E::Yawning => PoseSpec {
            right_hand: (24.0, 19.0),
            left_hand: WHEEL_LEFT,
            prop: None,
            prop_intensity: 0.0,
            head_tilt: -2.0,
            head_turn: 0.0,
            lean: 0.0,
        },
    }
}

/// Renders driver frames for a given canvas size.
#[derive(Debug, Clone)]
pub struct FrameRenderer {
    size: usize,
    noise_sigma: f32,
    seed: u64,
}

impl FrameRenderer {
    /// Creates a renderer with the default 48×48 canvas.
    pub fn new(seed: u64) -> Self {
        FrameRenderer {
            size: 48,
            noise_sigma: 0.07,
            seed,
        }
    }

    /// Overrides the canvas size (square), e.g. for tests.
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// Overrides sensor-noise sigma.
    pub fn with_noise(mut self, sigma: f32) -> Self {
        self.noise_sigma = sigma;
        self
    }

    /// Canvas edge length in pixels.
    pub fn size(&self) -> usize {
        self.size
    }

    fn rng_for(&self, class_salt: u64, driver: &DriverProfile, t: f64) -> SplitMix64 {
        SplitMix64::new(
            self.seed
                ^ class_salt.wrapping_mul(0x517C_C1B7_2722_0A95)
                ^ (driver.id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)
                ^ (t * 1000.0) as u64,
        )
    }

    /// Renders a dash-view frame for one of the 8 cabin classes.
    ///
    /// Classes 1–3 (normal / talking / texting) draw their right-hand
    /// position from *overlapping* distributions and carry only a faint
    /// phone cue, making them deliberately hard for a frame-only model —
    /// the regime the paper's Figure 5c documents (36% CNN texting
    /// accuracy). The drowsiness classes keep a near-normal silhouette and
    /// draw an eyelid band.
    pub fn render(&self, driver: &DriverProfile, class: CanonicalBehavior, t: f64) -> Frame {
        let mut rng = self.rng_for(class.salt(), driver, t);
        let mut pose = pose_for(class);
        let eyelid = ambiguate(&mut pose, class, &mut rng);
        self.render_pose(driver, &pose, &mut rng, t, eyelid)
    }

    /// Renders a side-view frame (camera on the passenger-side A-pillar)
    /// for one of the 8 cabin classes.
    ///
    /// The profile geometry makes head droop and eye closure far more
    /// visible than the dash view does, while hand/prop cues compress
    /// into depth — the complementary-information regime multi-view
    /// fusion papers exploit. Uses its own seed salt range (300+).
    pub fn render_side(&self, driver: &DriverProfile, class: CanonicalBehavior, t: f64) -> Frame {
        let mut rng = self.rng_for(300 + class.index() as u64, driver, t);
        let mut pose = pose_for(class);
        let eyelid = ambiguate(&mut pose, class, &mut rng);
        self.render_pose_side(driver, &pose, &mut rng, t, eyelid)
    }

    /// Renders a frame for one of the 18 extended behaviours.
    pub fn render_extended(
        &self,
        driver: &DriverProfile,
        behavior: ExtendedBehavior,
        t: f64,
    ) -> Frame {
        let mut rng = self.rng_for(100 + behavior.index() as u64, driver, t);
        let pose = pose_for_extended(behavior);
        self.render_pose(driver, &pose, &mut rng, t, 0.0)
    }

    fn render_pose(
        &self,
        driver: &DriverProfile,
        pose: &PoseSpec,
        rng: &mut SplitMix64,
        t: f64,
        eyelid: f32,
    ) -> Frame {
        let s = self.size as f32 / 48.0; // geometry scale factor
        let rng = &mut *rng;
        let mut frame = Frame::new(self.size, self.size);
        let mut f = frame.canvas();

        // Lighting varies slowly with time (the paper collected "under
        // varying degrees of lighting").
        let _ = t;
        let lighting = 1.0 + rng.uniform(-0.25, 0.25);

        // Background: vertical gradient (dark cabin) with a bright window
        // band upper-right.
        for y in 0..self.size {
            for x in 0..self.size {
                let g = 0.18 + 0.10 * (y as f32 / self.size as f32);
                f.put(x as isize, y as isize, g);
            }
        }
        fill_rect(&mut f, 36.0 * s, 0.0, 48.0 * s, 10.0 * s, 0.55);

        // Gesture micro-motion: hands tremble with a driver-style
        // amplitude; reaching sweeps more.
        let wob = driver.motion_style * s;
        let jitter = |rng: &mut SplitMix64, amp: f32| rng.uniform(-amp, amp);
        let rh = (
            (pose.right_hand.0 + driver.head_dx * 0.5) * s + jitter(rng, 0.8 * wob),
            pose.right_hand.1 * s + jitter(rng, 0.8 * wob),
        );
        let lh = (
            pose.left_hand.0 * s + jitter(rng, 0.5 * wob),
            pose.left_hand.1 * s + jitter(rng, 0.5 * wob),
        );

        // Steering wheel: ring lower-left.
        draw_ring(&mut f, 14.0 * s, 37.0 * s, 8.0 * s, 2.2 * s, 0.10);

        // Torso: rectangle with lean, carrying the identity texture.
        let lean = pose.lean * s;
        let torso_x0 = (16.0 + driver.head_dx * 0.5) * s + lean * 0.5;
        let torso_y0 = 21.0 * s;
        let torso_x1 = torso_x0 + 15.0 * driver.scale * s;
        let torso_y1 = 47.0 * s;
        let body_tone = (0.42 + driver.brightness) * lighting;
        fill_rect(&mut f, torso_x0, torso_y0, torso_x1, torso_y1, body_tone);
        // Identity stripes over the torso (high-frequency; destroyed by
        // down-sampling).
        apply_texture(
            &mut f,
            torso_x0,
            torso_y0,
            torso_x1,
            torso_y1,
            driver.texture_freq / s,
            driver.texture_phase,
            driver.texture_amp,
        );

        // Head: circle, with tilt/turn offsets.
        let head_x = (24.0 + driver.head_dx) * s + pose.head_turn * s + lean * 0.6;
        let head_y = (13.0 + driver.head_dy) * s + pose.head_tilt * s;
        let head_r = 5.5 * driver.scale * s;
        fill_circle(
            &mut f,
            head_x,
            head_y,
            head_r,
            (0.58 + driver.brightness) * lighting,
        );

        // Eyelid band: a dark bar across eye height, darker the more
        // closed the eyes are. Zero closure (every Table-1 class) draws
        // nothing.
        if eyelid > 0.0 {
            let tone = ((0.58 + driver.brightness) * lighting * (1.0 - 0.6 * eyelid)).max(0.05);
            fill_rect(
                &mut f,
                head_x - head_r * 0.9,
                head_y - head_r * 0.25,
                head_x + head_r * 0.9,
                head_y + head_r * 0.15,
                tone,
            );
        }

        // Shoulders.
        let shoulder_l = (torso_x0 + 2.0 * s, 23.0 * s);
        let shoulder_r = (torso_x1 - 2.0 * s, 23.0 * s);

        // Arms: thick lines from shoulders to hands.
        draw_thick_line(
            &mut f,
            shoulder_l,
            lh,
            2.8 * s,
            (0.40 + driver.brightness) * lighting,
        );
        draw_thick_line(
            &mut f,
            shoulder_r,
            rh,
            2.8 * s,
            (0.40 + driver.brightness) * lighting,
        );

        // Hands.
        fill_circle(
            &mut f,
            lh.0,
            lh.1,
            2.2 * s,
            (0.55 + driver.brightness) * lighting,
        );
        fill_circle(
            &mut f,
            rh.0,
            rh.1,
            2.2 * s,
            (0.55 + driver.brightness) * lighting,
        );

        // Prop at the active hand. Props live on the right hand except in
        // mirrored extended poses, where the pose already placed the
        // coordinates appropriately (the prop follows whichever hand left
        // the wheel).
        let active =
            if (rh.0 - WHEEL_RIGHT.0 * s).abs() < 1.5 && (rh.1 - WHEEL_RIGHT.1 * s).abs() < 2.5 {
                lh
            } else {
                rh
            };
        if let Some(prop) = pose.prop {
            let tone = (body_tone + pose.prop_intensity * lighting).min(1.0);
            match prop {
                Prop::Phone => {
                    fill_rect(
                        &mut f,
                        active.0 - 1.2 * s,
                        active.1 - 1.8 * s,
                        active.0 + 1.2 * s,
                        active.1 + 1.8 * s,
                        tone,
                    );
                }
                Prop::Cup => {
                    fill_rect(
                        &mut f,
                        active.0 - 1.3 * s,
                        active.1 - 3.2 * s,
                        active.0 + 1.3 * s,
                        active.1 + 1.2 * s,
                        tone,
                    );
                }
                Prop::Food => {
                    fill_circle(&mut f, active.0, active.1 - 1.0 * s, 2.2 * s, tone);
                }
                Prop::Cigarette => {
                    draw_thick_line(
                        &mut f,
                        active,
                        (active.0 + 3.5 * s, active.1 - 2.0 * s),
                        0.7 * s,
                        tone,
                    );
                }
                Prop::Brush => {
                    fill_rect(
                        &mut f,
                        active.0 - 1.0 * s,
                        active.1 - 2.6 * s,
                        active.0 + 1.0 * s,
                        active.1 + 0.6 * s,
                        tone,
                    );
                }
            }
        }

        // Sensor noise.
        if self.noise_sigma > 0.0 {
            for p in f.pixels_mut() {
                *p = (*p + rng.normal() * self.noise_sigma).clamp(0.0, 1.0);
            }
        }
        frame
    }

    /// Profile projection of a dash-view pose: the camera sits on the
    /// passenger-side A-pillar, so lateral reach compresses into depth
    /// (toward the windshield at the left edge) while vertical positions
    /// and head tilt survive — and head droop moves the head both down
    /// and forward, the cue the dash view flattens away.
    fn render_pose_side(
        &self,
        driver: &DriverProfile,
        pose: &PoseSpec,
        rng: &mut SplitMix64,
        t: f64,
        eyelid: f32,
    ) -> Frame {
        let s = self.size as f32 / 48.0;
        let rng = &mut *rng;
        let mut frame = Frame::new(self.size, self.size);
        let mut f = frame.canvas();

        let _ = t;
        let lighting = 1.0 + rng.uniform(-0.20, 0.20);

        // Background: horizontal gradient, windshield light from the left.
        for y in 0..self.size {
            for x in 0..self.size {
                let g = 0.16 + 0.12 * (1.0 - x as f32 / self.size as f32);
                f.put(x as isize, y as isize, g);
            }
        }
        fill_rect(&mut f, 0.0, 0.0, 7.0 * s, 28.0 * s, 0.52);

        // Steering wheel edge-on: a partial ring at the lower left.
        draw_ring(&mut f, 8.0 * s, 34.0 * s, 7.0 * s, 2.0 * s, 0.12);

        let wob = driver.motion_style * s;
        let jitter = |rng: &mut SplitMix64, amp: f32| rng.uniform(-amp, amp);
        // Dash-view lateral x becomes depth, compressed toward the
        // windshield; vertical y carries over.
        let project = |p: (f32, f32), jx: f32, jy: f32| -> (f32, f32) {
            ((34.0 - 0.38 * p.0) * s + jx, p.1 * s + jy)
        };
        let rh = project(
            pose.right_hand,
            jitter(rng, 0.8 * wob),
            jitter(rng, 0.8 * wob),
        );
        let lh = project(
            pose.left_hand,
            jitter(rng, 0.5 * wob),
            jitter(rng, 0.5 * wob),
        );

        // Torso: vertical slab right of center, same identity texture as
        // the dash view (it is the same shirt).
        let lean = pose.lean * s;
        let torso_x0 = 20.0 * s - lean * 0.6;
        let torso_y0 = 20.0 * s;
        let torso_x1 = torso_x0 + 13.0 * driver.scale * s;
        let torso_y1 = 47.0 * s;
        let body_tone = (0.42 + driver.brightness) * lighting;
        fill_rect(&mut f, torso_x0, torso_y0, torso_x1, torso_y1, body_tone);
        apply_texture(
            &mut f,
            torso_x0,
            torso_y0,
            torso_x1,
            torso_y1,
            driver.texture_freq / s,
            driver.texture_phase,
            driver.texture_amp,
        );

        // Head in profile: droop lowers it and pushes it toward the
        // windshield; turning toward the passenger brings the face toward
        // this camera.
        let head_x = (22.0 + driver.head_dx * 0.5) * s - pose.head_tilt * 0.8 * s - lean * 0.4
            + pose.head_turn * 0.3 * s;
        let head_y = (12.0 + driver.head_dy) * s + pose.head_tilt * 1.4 * s;
        let head_r = 5.5 * driver.scale * s;
        fill_circle(
            &mut f,
            head_x,
            head_y,
            head_r,
            (0.58 + driver.brightness) * lighting,
        );
        // Face edge: a bright leading crescent the profile view exposes.
        fill_circle(
            &mut f,
            head_x - head_r * 0.7,
            head_y - head_r * 0.1,
            head_r * 0.35,
            (0.66 + driver.brightness) * lighting,
        );
        if eyelid > 0.0 {
            let tone = ((0.58 + driver.brightness) * lighting * (1.0 - 0.6 * eyelid)).max(0.05);
            fill_rect(
                &mut f,
                head_x - head_r,
                head_y - head_r * 0.25,
                head_x - head_r * 0.1,
                head_y + head_r * 0.15,
                tone,
            );
        }

        // Near-side arm from the shoulder toward both hands (the far arm
        // is mostly occluded; draw it thinner first).
        let shoulder = (torso_x0 + 3.0 * s, 23.0 * s);
        draw_thick_line(
            &mut f,
            shoulder,
            lh,
            1.6 * s,
            (0.34 + driver.brightness) * lighting,
        );
        draw_thick_line(
            &mut f,
            shoulder,
            rh,
            2.8 * s,
            (0.40 + driver.brightness) * lighting,
        );
        fill_circle(
            &mut f,
            rh.0,
            rh.1,
            2.2 * s,
            (0.55 + driver.brightness) * lighting,
        );

        // Props compress to a small block at the active hand in profile.
        if let Some(_prop) = pose.prop {
            let tone = (body_tone + pose.prop_intensity * lighting).min(1.0);
            fill_rect(
                &mut f,
                rh.0 - 1.2 * s,
                rh.1 - 1.6 * s,
                rh.0 + 1.2 * s,
                rh.1 + 1.6 * s,
                tone,
            );
        }

        if self.noise_sigma > 0.0 {
            for p in f.pixels_mut() {
                *p = (*p + rng.normal() * self.noise_sigma).clamp(0.0, 1.0);
            }
        }
        frame
    }
}

// ---------------------------------------------------------------------
// Drawing primitives
// ---------------------------------------------------------------------

fn fill_rect(f: &mut Canvas<'_>, x0: f32, y0: f32, x1: f32, y1: f32, value: f32) {
    let (x0, x1) = (x0.min(x1), x0.max(x1));
    let (y0, y1) = (y0.min(y1), y0.max(y1));
    for y in y0.floor() as isize..=y1.ceil() as isize {
        for x in x0.floor() as isize..=x1.ceil() as isize {
            f.put(x, y, value);
        }
    }
}

fn fill_circle(f: &mut Canvas<'_>, cx: f32, cy: f32, r: f32, value: f32) {
    let r2 = r * r;
    for y in (cy - r).floor() as isize..=(cy + r).ceil() as isize {
        for x in (cx - r).floor() as isize..=(cx + r).ceil() as isize {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            if dx * dx + dy * dy <= r2 {
                f.put(x, y, value);
            }
        }
    }
}

fn draw_ring(f: &mut Canvas<'_>, cx: f32, cy: f32, r: f32, thickness: f32, value: f32) {
    let outer2 = r * r;
    let inner = (r - thickness).max(0.0);
    let inner2 = inner * inner;
    for y in (cy - r).floor() as isize..=(cy + r).ceil() as isize {
        for x in (cx - r).floor() as isize..=(cx + r).ceil() as isize {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            let d2 = dx * dx + dy * dy;
            if d2 <= outer2 && d2 >= inner2 {
                f.put(x, y, value);
            }
        }
    }
}

fn draw_thick_line(f: &mut Canvas<'_>, a: (f32, f32), b: (f32, f32), width: f32, value: f32) {
    let steps = ((b.0 - a.0).abs().max((b.1 - a.1).abs()).ceil() as usize).max(1) * 2;
    for i in 0..=steps {
        let t = i as f32 / steps as f32;
        let x = a.0 + (b.0 - a.0) * t;
        let y = a.1 + (b.1 - a.1) * t;
        fill_circle(f, x, y, width / 2.0, value);
    }
}

#[allow(clippy::too_many_arguments)] // private raster helper: a bounding box + wave parameters
fn apply_texture(
    f: &mut Canvas<'_>,
    x0: f32,
    y0: f32,
    x1: f32,
    y1: f32,
    freq: f32,
    phase: f32,
    amp: f32,
) {
    for y in y0.floor().max(0.0) as usize..(y1.ceil() as usize).min(f.height()) {
        for x in x0.floor().max(0.0) as usize..(x1.ceil() as usize).min(f.width()) {
            let wave = (std::f32::consts::TAU * freq * (x as f32 + 0.7 * y as f32) + phase).sin();
            let (x, y) = (x as isize, y as isize);
            let old = f.get(x, y).unwrap_or(0.0);
            f.put(x, y, old + amp * wave);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> DriverProfile {
        DriverProfile::generate(0, 42)
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = FrameRenderer::new(7);
        for c in CanonicalBehavior::ALL {
            assert_eq!(
                r.render(&driver(), c, 1.0),
                r.render(&driver(), c, 1.0),
                "{c}"
            );
        }
    }

    #[test]
    fn different_behaviors_render_differently() {
        let r = FrameRenderer::new(7).with_noise(0.0);
        let normal = r.render(&driver(), CanonicalBehavior::NormalDriving, 1.0);
        let reach = r.render(&driver(), CanonicalBehavior::Reaching, 1.0);
        let diff: f32 = normal
            .pixels()
            .iter()
            .zip(reach.pixels())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 5.0, "frames too similar: {diff}");
    }

    #[test]
    fn texting_talking_more_similar_than_reaching() {
        // The deliberate confusability property: texting vs talking frames
        // differ less than texting vs reaching frames.
        let r = FrameRenderer::new(7).with_noise(0.0);
        let d = driver();
        let l1 = |a: &Frame, b: &Frame| -> f32 {
            a.pixels()
                .iter()
                .zip(b.pixels())
                .map(|(x, y)| (x - y).abs())
                .sum()
        };
        let mut sim_tt = 0.0;
        let mut sim_tr = 0.0;
        for i in 0..10 {
            let t = i as f64 * 0.7;
            let texting = r.render(&d, CanonicalBehavior::Texting, t);
            let talking = r.render(&d, CanonicalBehavior::Talking, t);
            let reaching = r.render(&d, CanonicalBehavior::Reaching, t);
            sim_tt += l1(&texting, &talking);
            sim_tr += l1(&texting, &reaching);
        }
        assert!(
            sim_tt < sim_tr,
            "texting/talking {sim_tt} vs texting/reaching {sim_tr}"
        );
    }

    #[test]
    fn all_pixels_in_range() {
        let r = FrameRenderer::new(9);
        for b in CanonicalBehavior::ALL {
            let f = r.render(&driver(), b, 3.3);
            assert!(f.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn extended_classes_render_distinctly() {
        let r = FrameRenderer::new(11).with_noise(0.0);
        let d = driver();
        let frames: Vec<Frame> = ExtendedBehavior::ALL
            .iter()
            .map(|&b| r.render_extended(&d, b, 2.0))
            .collect();
        // Every pair differs at least somewhat.
        for i in 0..frames.len() {
            for j in (i + 1)..frames.len() {
                let diff: f32 = frames[i]
                    .pixels()
                    .iter()
                    .zip(frames[j].pixels())
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                assert!(diff > 0.5, "classes {i} and {j} render identically");
            }
        }
    }

    #[test]
    fn identity_texture_survives_full_res_but_not_downsampling() {
        let r = FrameRenderer::new(13).with_noise(0.0);
        let d0 = DriverProfile::generate(0, 42);
        let d1 = DriverProfile::generate(1, 42);
        let f0 = r.render(&d0, CanonicalBehavior::NormalDriving, 1.0);
        let f1 = r.render(&d1, CanonicalBehavior::NormalDriving, 1.0);
        let full_diff: f32 = f0
            .pixels()
            .iter()
            .zip(f1.pixels())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / f0.pixels().len() as f32;
        let d0s = f0.downsample_nearest(8, 8);
        let d1s = f1.downsample_nearest(8, 8);
        let down_diff: f32 = d0s
            .pixels()
            .iter()
            .zip(d1s.pixels())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / d0s.pixels().len() as f32;
        // Identity signal is attenuated by down-sampling (not necessarily
        // zero — geometry differs too — but the per-pixel gap shrinks).
        assert!(full_diff > 0.0);
        assert!(down_diff < full_diff * 1.5);
    }

    #[test]
    fn drowsy_classes_render_distinctly() {
        let d = driver();
        let rq = FrameRenderer::new(7).with_noise(0.0);
        let eyes = rq.render(&d, CanonicalBehavior::EyesClosing, 1.0);
        let droop = rq.render(&d, CanonicalBehavior::HeadDroop, 1.0);
        let normal = rq.render(&d, CanonicalBehavior::NormalDriving, 1.0);
        let l1 = |a: &Frame, b: &Frame| -> f32 {
            a.pixels()
                .iter()
                .zip(b.pixels())
                .map(|(x, y)| (x - y).abs())
                .sum()
        };
        assert!(l1(&eyes, &droop) > 1.0);
        assert!(l1(&eyes, &normal) > 1.0);
    }

    #[test]
    fn side_view_is_deterministic_and_differs_from_dash_view() {
        let r = FrameRenderer::new(7);
        let d = driver();
        for c in CanonicalBehavior::ALL {
            let a = r.render_side(&d, c, 2.0);
            let b = r.render_side(&d, c, 2.0);
            assert_eq!(a, b);
            assert!(a.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        let rq = FrameRenderer::new(7).with_noise(0.0);
        let dash = rq.render(&d, CanonicalBehavior::HeadDroop, 2.0);
        let side = rq.render_side(&d, CanonicalBehavior::HeadDroop, 2.0);
        let diff: f32 = dash
            .pixels()
            .iter()
            .zip(side.pixels())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 5.0, "side view too close to dash view: {diff}");
    }

    #[test]
    fn side_view_separates_droop_from_normal_more_than_dash_does() {
        // The complementary-information property the third stream exists
        // for: head droop moves the profile head a lot but the dash head
        // only a little.
        let r = FrameRenderer::new(7).with_noise(0.0);
        let d = driver();
        let l1 = |a: &Frame, b: &Frame| -> f32 {
            a.pixels()
                .iter()
                .zip(b.pixels())
                .map(|(x, y)| (x - y).abs())
                .sum()
        };
        let mut dash_gap = 0.0;
        let mut side_gap = 0.0;
        for i in 0..10 {
            let t = i as f64 * 0.9;
            dash_gap += l1(
                &r.render(&d, CanonicalBehavior::HeadDroop, t),
                &r.render(&d, CanonicalBehavior::NormalDriving, t),
            );
            side_gap += l1(
                &r.render_side(&d, CanonicalBehavior::HeadDroop, t),
                &r.render_side(&d, CanonicalBehavior::NormalDriving, t),
            );
        }
        assert!(
            side_gap > dash_gap * 0.8,
            "side view adds no droop signal: dash {dash_gap} side {side_gap}"
        );
    }

    #[test]
    fn custom_canvas_size_scales_geometry() {
        let r = FrameRenderer::new(15).with_size(24);
        let f = r.render(&driver(), CanonicalBehavior::NormalDriving, 0.0);
        assert_eq!(f.width(), 24);
        assert_eq!(f.height(), 24);
    }
}
