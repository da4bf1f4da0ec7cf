//! Reference digests recorded from the seed code. Each file line is
//! `<seed> <digest>...`, one 32-bit hex digest per reference unit (a
//! matrix cell, a transfer, a load, a scan), in pass order. Regenerate a
//! workload's file with `--record <first-seed> <last-seed>`.

const FILES: [(&str, &str); 4] = [
    (
        "handshake_matrix",
        include_str!("../reference/handshake_matrix.txt"),
    ),
    (
        "bulk_transfer",
        include_str!("../reference/bulk_transfer.txt"),
    ),
    ("server_load", include_str!("../reference/server_load.txt")),
    ("wild_scan", include_str!("../reference/wild_scan.txt")),
];

/// The recorded digests of `workload` at `seed`, if that seed was
/// recorded.
pub fn lookup(workload: &str, seed: u64) -> Option<Vec<u32>> {
    let (_, text) = FILES.iter().find(|(w, _)| *w == workload)?;
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next()?.parse::<u64>().ok()? == seed).then_some(fields)
        })
        .map(|fields| {
            fields
                .map(|d| u32::from_str_radix(d, 16).expect("reference digests are hex"))
                .collect()
        })
}

/// One reference-file line.
pub fn line(seed: u64, digests: &[u32]) -> String {
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:08x}")).collect();
    format!("{seed} {}", hex.join(" "))
}
