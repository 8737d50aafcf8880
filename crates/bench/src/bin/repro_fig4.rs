//! Regenerates **Figure 4**: a frame at full resolution and at the three
//! distortion levels, written as PGM images plus ASCII previews.
#![expect(
    clippy::disallowed_methods,
    reason = "Figure 4's reproduction writes its image files"
)]

use darnet_bench::header;
use darnet_core::experiment::run_fig4;
use darnet_core::privacy::PrivacyLevel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("darnet_fig4");
    std::fs::create_dir_all(&dir)?;
    header("Figure 4: distortion levels");
    let paths = run_fig4(&dir, 0xDA12_2017)?;
    for p in &paths {
        println!("wrote {}", p.display());
    }
    println!();
    for level in PrivacyLevel::ALL {
        println!(
            "{:8}  {}x{} px   {}x less data",
            level.model_name(),
            level.target_size(48),
            level.target_size(48),
            level.data_reduction()
        );
    }
    Ok(())
}
