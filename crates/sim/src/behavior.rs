//! Behaviour taxonomies: the cabin set (the paper's six Table-1 classes
//! plus two drowsiness classes), the 18-class extended set used by the
//! dCNN privacy study (§5.3), and the 3-class phone-orientation set the
//! IMU models operate on.

/// Phone-orientation classes for the IMU stream.
///
/// The paper positions the client device in "one of five varying
/// orientations" grouped into three classes: texting (hand, waist-to-eye
/// level), talking (at the ear), and everything else (horizontal in the
/// front-right pocket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ImuClass {
    /// Device in the pocket — all non-phone behaviours.
    Normal,
    /// Device held to the ear.
    Talking,
    /// Device held between waist and eye level.
    Texting,
}

impl ImuClass {
    /// All three classes.
    pub const ALL: [ImuClass; 3] = [ImuClass::Normal, ImuClass::Talking, ImuClass::Texting];

    /// Zero-based index.
    pub fn index(self) -> usize {
        match self {
            ImuClass::Normal => 0,
            ImuClass::Talking => 1,
            ImuClass::Texting => 2,
        }
    }

    /// The class for a zero-based index, if valid.
    pub fn from_index(index: usize) -> Option<ImuClass> {
        ImuClass::ALL.get(index).copied()
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ImuClass::Normal => "Normal",
            ImuClass::Talking => "Talking",
            ImuClass::Texting => "Texting",
        }
    }
}

impl std::fmt::Display for ImuClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The cabin behaviour taxonomy: the paper's six Table-1 classes (indices
/// 0–5, in Table 1 order) plus two drowsiness classes (eye closure and
/// head droop) that only a multi-view, multi-modality stack separates
/// reliably — drowsiness cues live in the face/head geometry (frames) and
/// in steering micro-corrections (IMU), not in hand position.
///
/// A 6-class model or script is this taxonomy restricted to
/// [`CanonicalBehavior::TABLE1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CanonicalBehavior {
    /// Class 1 — both hands on the wheel, attention forward.
    NormalDriving,
    /// Class 2 — phone held to the ear.
    Talking,
    /// Class 3 — phone held between waist and eye level.
    Texting,
    /// Class 4 — eating or drinking (cup/food near the mouth).
    EatingDrinking,
    /// Class 5 — hair and makeup (hand near the top of the head).
    HairMakeup,
    /// Class 6 — reaching toward the passenger side or back seat.
    Reaching,
    /// Class 7 — drowsiness onset: eyes closing, posture still nominal.
    EyesClosing,
    /// Class 8 — advanced drowsiness: head drooping toward the chest.
    HeadDroop,
}

impl CanonicalBehavior {
    /// All eight classes, the first six in Table 1 order.
    pub const ALL: [CanonicalBehavior; 8] = [
        CanonicalBehavior::NormalDriving,
        CanonicalBehavior::Talking,
        CanonicalBehavior::Texting,
        CanonicalBehavior::EatingDrinking,
        CanonicalBehavior::HairMakeup,
        CanonicalBehavior::Reaching,
        CanonicalBehavior::EyesClosing,
        CanonicalBehavior::HeadDroop,
    ];

    /// The six classes of the paper's Table 1, in its order.
    pub const TABLE1: [CanonicalBehavior; 6] = [
        CanonicalBehavior::NormalDriving,
        CanonicalBehavior::Talking,
        CanonicalBehavior::Texting,
        CanonicalBehavior::EatingDrinking,
        CanonicalBehavior::HairMakeup,
        CanonicalBehavior::Reaching,
    ];

    /// Zero-based class index (Table 1 class number minus one for the
    /// first six).
    pub fn index(self) -> usize {
        match self {
            CanonicalBehavior::NormalDriving => 0,
            CanonicalBehavior::Talking => 1,
            CanonicalBehavior::Texting => 2,
            CanonicalBehavior::EatingDrinking => 3,
            CanonicalBehavior::HairMakeup => 4,
            CanonicalBehavior::Reaching => 5,
            CanonicalBehavior::EyesClosing => 6,
            CanonicalBehavior::HeadDroop => 7,
        }
    }

    /// The class for a zero-based index, if valid.
    pub fn from_index(index: usize) -> Option<CanonicalBehavior> {
        CanonicalBehavior::ALL.get(index).copied()
    }

    /// Human-readable name (Table 1's for its six classes).
    pub fn name(self) -> &'static str {
        match self {
            CanonicalBehavior::NormalDriving => "Normal Driving",
            CanonicalBehavior::Talking => "Talking",
            CanonicalBehavior::Texting => "Texting",
            CanonicalBehavior::EatingDrinking => "Eating/Drinking",
            CanonicalBehavior::HairMakeup => "Hair and Makeup",
            CanonicalBehavior::Reaching => "Reaching",
            CanonicalBehavior::EyesClosing => "Eyes Closing",
            CanonicalBehavior::HeadDroop => "Head Droop",
        }
    }

    /// The phone-orientation class the driver's mobile device is in during
    /// this behaviour.
    ///
    /// Per the paper, classes 4–6 do not involve the phone, which sits in
    /// the driver's front-right pocket — the "Normal Driving" position for
    /// the IMU stream. A drowsy driver's hands stay on the wheel, so the
    /// drowsiness classes are pocket-orientation too.
    pub fn imu_class(self) -> ImuClass {
        match self {
            CanonicalBehavior::Talking => ImuClass::Talking,
            CanonicalBehavior::Texting => ImuClass::Texting,
            _ => ImuClass::Normal,
        }
    }

    /// Whether Table 1 lists an IMU data type for this class (classes 1–3
    /// — normal driving contributes pocket-orientation IMU data; classes
    /// 4–6 are recorded as image-only; the drowsiness classes are not in
    /// Table 1).
    pub fn table1_has_imu(self) -> bool {
        matches!(
            self,
            CanonicalBehavior::NormalDriving
                | CanonicalBehavior::Talking
                | CanonicalBehavior::Texting
        )
    }

    /// Whether this is one of the two drowsiness classes.
    pub fn is_drowsy(self) -> bool {
        matches!(
            self,
            CanonicalBehavior::EyesClosing | CanonicalBehavior::HeadDroop
        )
    }

    /// The class's seed salt for the dash camera and the IMU: the Table-1
    /// classes use their index and the drowsiness classes `200 + index`,
    /// so adding the drowsiness classes moved no Table-1 output.
    pub(crate) fn salt(self) -> u64 {
        let index = self.index() as u64;
        if self.is_drowsy() {
            200 + index
        } else {
            index
        }
    }
}

impl std::fmt::Display for CanonicalBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The 18-class extended taxonomy of the "previously collected distracted
/// driver dataset" the paper's dCNN privacy study evaluates on (§5.3: 18
/// classes, 10 drivers, GoPro at 30 fps).
///
/// The paper does not enumerate the 18 classes; this reproduction uses a
/// plausible refinement of the 6-class set (left/right-hand variants and
/// additional in-cabin tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ExtendedBehavior {
    NormalDriving,
    TalkingLeft,
    TalkingRight,
    TextingLeft,
    TextingRight,
    PhoneOnDash,
    Drinking,
    Eating,
    Smoking,
    Hair,
    Makeup,
    ReachingSide,
    ReachingBack,
    AdjustingRadio,
    AdjustingNavigation,
    TalkingToPassenger,
    LookingBack,
    Yawning,
}

impl ExtendedBehavior {
    /// All eighteen classes.
    pub const ALL: [ExtendedBehavior; 18] = [
        ExtendedBehavior::NormalDriving,
        ExtendedBehavior::TalkingLeft,
        ExtendedBehavior::TalkingRight,
        ExtendedBehavior::TextingLeft,
        ExtendedBehavior::TextingRight,
        ExtendedBehavior::PhoneOnDash,
        ExtendedBehavior::Drinking,
        ExtendedBehavior::Eating,
        ExtendedBehavior::Smoking,
        ExtendedBehavior::Hair,
        ExtendedBehavior::Makeup,
        ExtendedBehavior::ReachingSide,
        ExtendedBehavior::ReachingBack,
        ExtendedBehavior::AdjustingRadio,
        ExtendedBehavior::AdjustingNavigation,
        ExtendedBehavior::TalkingToPassenger,
        ExtendedBehavior::LookingBack,
        ExtendedBehavior::Yawning,
    ];

    /// Zero-based class index.
    pub fn index(self) -> usize {
        // `ALL` lists every variant in declaration order; falling back to 0
        // (instead of panicking) keeps this total should the lists ever
        // drift — `extended_taxonomy_has_18_distinct_classes` pins that
        // they don't.
        ExtendedBehavior::ALL
            .iter()
            .position(|b| *b == self)
            .unwrap_or(0)
    }

    /// The class for a zero-based index, if valid.
    pub fn from_index(index: usize) -> Option<ExtendedBehavior> {
        ExtendedBehavior::ALL.get(index).copied()
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ExtendedBehavior::NormalDriving => "Normal Driving",
            ExtendedBehavior::TalkingLeft => "Talking (left hand)",
            ExtendedBehavior::TalkingRight => "Talking (right hand)",
            ExtendedBehavior::TextingLeft => "Texting (left hand)",
            ExtendedBehavior::TextingRight => "Texting (right hand)",
            ExtendedBehavior::PhoneOnDash => "Phone on dash",
            ExtendedBehavior::Drinking => "Drinking",
            ExtendedBehavior::Eating => "Eating",
            ExtendedBehavior::Smoking => "Smoking",
            ExtendedBehavior::Hair => "Hair",
            ExtendedBehavior::Makeup => "Makeup",
            ExtendedBehavior::ReachingSide => "Reaching (side)",
            ExtendedBehavior::ReachingBack => "Reaching (back)",
            ExtendedBehavior::AdjustingRadio => "Adjusting radio",
            ExtendedBehavior::AdjustingNavigation => "Adjusting navigation",
            ExtendedBehavior::TalkingToPassenger => "Talking to passenger",
            ExtendedBehavior::LookingBack => "Looking back",
            ExtendedBehavior::Yawning => "Yawning",
        }
    }
}

impl std::fmt::Display for ExtendedBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imu_mapping_matches_table1_data_types() {
        assert_eq!(
            CanonicalBehavior::NormalDriving.imu_class(),
            ImuClass::Normal
        );
        assert_eq!(CanonicalBehavior::Talking.imu_class(), ImuClass::Talking);
        assert_eq!(CanonicalBehavior::Texting.imu_class(), ImuClass::Texting);
        // Classes 4–6 are "Normal Driving" for the IMU per Table 1, and a
        // drowsy driver's phone stays in the pocket too.
        for c in &CanonicalBehavior::ALL[3..] {
            assert_eq!(c.imu_class(), ImuClass::Normal, "{c}");
        }
        let with_imu: Vec<_> = CanonicalBehavior::ALL
            .into_iter()
            .filter(|c| c.table1_has_imu())
            .collect();
        assert_eq!(with_imu, CanonicalBehavior::TABLE1[..3]);
    }

    #[test]
    fn canonical_taxonomy_embeds_table1_then_drowsiness() {
        assert_eq!(CanonicalBehavior::ALL.len(), 8);
        for (i, c) in CanonicalBehavior::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(CanonicalBehavior::from_index(i), Some(*c));
        }
        assert_eq!(CanonicalBehavior::from_index(8), None);
        // Table 1 is the first six classes; they salt with their index.
        assert_eq!(CanonicalBehavior::TABLE1[..], CanonicalBehavior::ALL[..6]);
        for c in CanonicalBehavior::TABLE1 {
            assert!(!c.is_drowsy());
            assert_eq!(c.salt(), c.index() as u64);
        }
        assert!(CanonicalBehavior::EyesClosing.is_drowsy());
        assert!(CanonicalBehavior::HeadDroop.is_drowsy());
        assert_eq!(CanonicalBehavior::EyesClosing.salt(), 206);
        assert_eq!(CanonicalBehavior::HeadDroop.salt(), 207);
    }

    #[test]
    fn extended_taxonomy_has_18_distinct_classes() {
        assert_eq!(ExtendedBehavior::ALL.len(), 18);
        for (i, b) in ExtendedBehavior::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
            assert_eq!(ExtendedBehavior::from_index(i), Some(*b));
        }
        assert_eq!(ExtendedBehavior::from_index(18), None);
    }

    #[test]
    fn imu_class_indices_roundtrip() {
        for (i, c) in ImuClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(ImuClass::from_index(i), Some(*c));
        }
    }

    #[test]
    fn display_names_are_nonempty() {
        for b in CanonicalBehavior::ALL {
            assert!(!b.to_string().is_empty());
        }
        for b in ExtendedBehavior::ALL {
            assert!(!b.to_string().is_empty());
        }
    }
}
