//! The crate boundary that keeps `darnet-pure` effect-free: its manifest
//! has one dependency table, `[dependencies]`, naming `bytes` alone. A
//! workspace crate behind it would bring the seeded PRNG
//! (`darnet-tensor`) or the simulator (`darnet-sim`) into replay's
//! reach, and a table of another shape (`[build-dependencies]`,
//! `[target.'cfg(..)'.dependencies]`, `[dependencies.name]`) would be a
//! way round the check.

const MANIFEST: &str = include_str!("../Cargo.toml");

/// `(table header, entry keys)` for every table of the manifest.
fn tables(manifest: &str) -> Vec<(String, Vec<String>)> {
    let mut tables: Vec<(String, Vec<String>)> = vec![(String::new(), Vec::new())];
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_start_matches('[').trim_end_matches(']');
            tables.push((header.trim().to_string(), Vec::new()));
        } else if let Some((key, _)) = line.split_once('=') {
            let key = key.split('.').next().unwrap_or("").trim().trim_matches('"');
            if let Some((_, keys)) = tables.last_mut() {
                keys.push(key.to_string());
            }
        }
    }
    tables
}

#[test]
fn bytes_is_the_only_dependency() {
    let deps: Vec<(String, Vec<String>)> = tables(MANIFEST)
        .into_iter()
        .filter(|(header, _)| header.contains("dependencies"))
        .collect();
    assert_eq!(
        deps,
        [("dependencies".to_string(), vec!["bytes".to_string()])],
        "darnet-pure's dependency tables"
    );
}

#[test]
fn the_parser_sees_what_a_mutation_would_add() {
    let added = "[dependencies]\nbytes.workspace = true\ndarnet-tensor.workspace = true\n";
    assert_eq!(
        tables(added)[1],
        (
            "dependencies".to_string(),
            vec!["bytes".to_string(), "darnet-tensor".to_string()]
        )
    );
    let table = "[dependencies.darnet-sim]\npath = \"../sim\"\n";
    assert_eq!(tables(table)[1].0, "dependencies.darnet-sim");
    let target = "[target.'cfg(unix)'.dependencies]\nlibc = \"1\"\n";
    assert_eq!(tables(target)[1].0, "target.'cfg(unix)'.dependencies");
}
