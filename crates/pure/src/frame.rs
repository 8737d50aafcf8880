//! Grayscale camera frames.

use std::sync::Arc;

/// A grayscale camera frame with pixel intensities in `[0, 1]`, row-major.
///
/// This is the unit of data the dashcam collection agent emits and the CNN
/// consumes (after conversion to a tensor).
///
/// The pixels sit in a shared buffer: `clone` copies a pointer, and the
/// first mutation of a frame whose buffer is shared copies the pixels
/// (copy on write), so a clone can never be changed through another
/// handle. Equality compares pixel values, not pointers.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    pixels: Arc<[f32]>,
}

/// A frame's pixel buffer borrowed uniquely for drawing. Taking it
/// ([`Frame::canvas`]) settles copy-on-write once, so a renderer that
/// draws thousands of pixels pays no reference-count check per pixel.
#[derive(Debug)]
pub struct Canvas<'a> {
    width: usize,
    height: usize,
    pixels: &'a mut [f32],
}

impl Canvas<'_> {
    /// Canvas width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Canvas height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The pixel buffer (row-major).
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [f32] {
        self.pixels
    }

    #[inline]
    fn index(&self, x: isize, y: isize) -> Option<usize> {
        (x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height)
            .then(|| y as usize * self.width + x as usize)
    }

    /// Pixel at `(x, y)`, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, x: isize, y: isize) -> Option<f32> {
        self.index(x, y).map(|i| self.pixels[i])
    }

    /// Sets pixel `(x, y)` if in bounds (silently ignores out-of-bounds,
    /// which keeps drawing primitives simple).
    #[inline]
    pub fn put(&mut self, x: isize, y: isize, value: f32) {
        if let Some(i) = self.index(x, y) {
            self.pixels[i] = value.clamp(0.0, 1.0);
        }
    }

    /// Blends `value` over pixel `(x, y)` with weight `alpha` if in bounds.
    #[inline]
    pub fn blend(&mut self, x: isize, y: isize, value: f32, alpha: f32) {
        if let Some(i) = self.index(x, y) {
            self.pixels[i] = (self.pixels[i] * (1.0 - alpha) + value * alpha).clamp(0.0, 1.0);
        }
    }
}

impl Frame {
    /// Creates a black frame.
    pub fn new(width: usize, height: usize) -> Self {
        Frame {
            width,
            height,
            pixels: std::iter::repeat_n(0.0, width * height).collect(),
        }
    }

    /// Creates a frame from raw pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height`.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<f32>) -> Self {
        assert_eq!(
            pixels.len(),
            width * height,
            "pixel buffer does not match dimensions"
        );
        Frame {
            width,
            height,
            pixels: pixels.into(),
        }
    }

    /// Frame width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The pixel buffer (row-major, `[0, 1]`).
    #[inline]
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// The pixels borrowed uniquely for drawing, copied first if another
    /// frame shares them.
    #[inline]
    pub fn canvas(&mut self) -> Canvas<'_> {
        Canvas {
            width: self.width,
            height: self.height,
            pixels: Arc::make_mut(&mut self.pixels),
        }
    }

    /// Mutable pixel buffer (copied first if another frame shares it).
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.pixels)
    }

    /// Pixel at `(x, y)`, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<f32> {
        if x < self.width && y < self.height {
            Some(self.pixels[y * self.width + x])
        } else {
            None
        }
    }

    /// Sets pixel `(x, y)` if in bounds (silently ignores out-of-bounds,
    /// which keeps drawing primitives simple).
    #[inline]
    pub fn put(&mut self, x: isize, y: isize, value: f32) {
        self.canvas().put(x, y, value);
    }

    /// Blends `value` over pixel `(x, y)` with weight `alpha` if in bounds.
    #[inline]
    pub fn blend(&mut self, x: isize, y: isize, value: f32, alpha: f32) {
        self.canvas().blend(x, y, value, alpha);
    }

    /// Nearest-neighbour down-sampling to `new_w × new_h` — the distortion
    /// primitive of the paper's privacy module (§4.3, Figure 4).
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn downsample_nearest(&self, new_w: usize, new_h: usize) -> Frame {
        assert!(new_w > 0 && new_h > 0, "target dimensions must be non-zero");
        let mut out = Frame::new(new_w, new_h);
        self.resample_nearest_into(new_w, new_h, out.pixels_mut());
        out
    }

    /// Nearest-neighbour resampling to `new_w × new_h` into a
    /// caller-provided row-major buffer — the one body of
    /// [`Frame::downsample_nearest`] and [`Frame::upsample_nearest`].
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than `new_w * new_h` pixels or this
    /// frame has none.
    pub fn resample_nearest_into(&self, new_w: usize, new_h: usize, out: &mut [f32]) {
        for y in 0..new_h {
            let sy = y * self.height / new_h;
            for x in 0..new_w {
                let sx = x * self.width / new_w;
                out[y * new_w + x] = self.pixels[sy * self.width + sx];
            }
        }
    }

    /// Nearest-neighbour up-sampling back to `new_w × new_h` (used to feed
    /// down-sampled frames into a fixed-input-size CNN, mirroring how the
    /// paper's dCNNs reuse the Inception input geometry).
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn upsample_nearest(&self, new_w: usize, new_h: usize) -> Frame {
        // Same index arithmetic works for both directions.
        self.downsample_nearest(new_w, new_h)
    }

    /// Mean pixel intensity.
    pub fn mean(&self) -> f32 {
        if self.pixels.is_empty() {
            0.0
        } else {
            self.pixels.iter().sum::<f32>() / self.pixels.len() as f32
        }
    }

    /// Serializes to binary PGM (P5), 8-bit — handy for eyeballing Figure 4
    /// outputs.
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend(
            self.pixels
                .iter()
                .map(|&p| (p.clamp(0.0, 1.0) * 255.0) as u8),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_frame_is_black() {
        let f = Frame::new(4, 3);
        assert_eq!(f.width(), 4);
        assert_eq!(f.height(), 3);
        assert_eq!(f.mean(), 0.0);
    }

    #[test]
    fn put_get_roundtrip_and_bounds() {
        let mut f = Frame::new(2, 2);
        f.put(1, 1, 0.5);
        assert_eq!(f.get(1, 1), Some(0.5));
        assert_eq!(f.get(2, 0), None);
        f.put(-1, 0, 1.0); // silently ignored
        f.put(5, 5, 1.0);
        assert_eq!(f.mean(), 0.125);
    }

    #[test]
    fn put_clamps_values() {
        let mut f = Frame::new(1, 1);
        f.put(0, 0, 2.0);
        assert_eq!(f.get(0, 0), Some(1.0));
        f.put(0, 0, -1.0);
        assert_eq!(f.get(0, 0), Some(0.0));
    }

    #[test]
    fn downsample_by_2_picks_every_other_pixel() {
        let mut f = Frame::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                f.put(x as isize, y as isize, (y * 4 + x) as f32 / 16.0);
            }
        }
        let d = f.downsample_nearest(2, 2);
        assert_eq!(d.get(0, 0), f.get(0, 0));
        assert_eq!(d.get(1, 0), f.get(2, 0));
        assert_eq!(d.get(0, 1), f.get(0, 2));
        assert_eq!(d.get(1, 1), f.get(2, 2));
    }

    #[test]
    fn down_then_upsample_preserves_dimensions() {
        let f = Frame::new(48, 48);
        let d = f.downsample_nearest(16, 16);
        let u = d.upsample_nearest(48, 48);
        assert_eq!(u.width(), 48);
        assert_eq!(u.height(), 48);
    }

    #[test]
    fn data_volume_reduction_ratios_match_paper() {
        // The paper reports ~9x, 25x(=36x at exact thirds), 144x reductions
        // from 300x300. With 48x48 frames the exact ratios are 9x, 36x,
        // 144x for 16/8/4.
        let full = 48 * 48;
        assert_eq!(full / (16 * 16), 9);
        assert_eq!(full / (8 * 8), 36);
        assert_eq!(full / (4 * 4), 144);
    }

    #[test]
    fn pgm_has_correct_header_and_size() {
        let f = Frame::new(3, 2);
        let pgm = f.to_pgm();
        assert!(pgm.starts_with(b"P5\n3 2\n255\n"));
        assert_eq!(pgm.len(), b"P5\n3 2\n255\n".len() + 6);
    }

    #[test]
    fn blend_mixes_values() {
        let mut f = Frame::new(1, 1);
        f.put(0, 0, 1.0);
        f.blend(0, 0, 0.0, 0.25);
        assert!((f.get(0, 0).unwrap() - 0.75).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "pixel buffer does not match dimensions")]
    fn from_pixels_validates_length() {
        let _ = Frame::from_pixels(2, 2, vec![0.0; 3]);
    }
}
