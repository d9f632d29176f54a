//! The machine's speed, measured beside the work it is applied to.
//!
//! The box this benchmark was fitted to is a two-vCPU virtual machine whose
//! memory system runs at anything from full speed to 0.6 of it, for seconds
//! or for minutes, with no steal time reported (README.md has the numbers).
//! No estimator inside a run removes a level that outlasts the run. So the
//! compute-bound timings are reported on a reference clock: a fixed piece of
//! work of the benchmark's own — no code of the repository, so no change to
//! the program can move it — is timed right before and right after every
//! op, and the op's duration is scaled by how fast that work ran.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one pass takes on that box at full speed. Only a scale: a machine
/// on which a pass takes this long reports wall-clock numbers.
pub const NOMINAL: Duration = Duration::from_micros(12_500);

const WIDTH: usize = 4096;
const DEGREE: usize = 16;
/// Entries of the cache-sized part: 2 MiB of weights and indices, the size
/// of this machine's second-level cache.
const NEAR: usize = 1 << 18;
/// Layers of the streamed part: 8 MiB of weights and indices.
const FAR_LAYERS: usize = 16;
const FAR_ROWS: usize = 8;
const LANES: usize = 32;

/// The reference work's data. The indices are a fixed scramble, the same in
/// every run and for every seed.
pub struct Reference {
    near_idx: Vec<u32>,
    near_w: Vec<f32>,
    far_idx: Vec<u32>,
    far_w: Vec<f32>,
    x: Vec<f32>,
    /// Each thread's output rows.
    y: [Mutex<Vec<f32>>; 2],
}

fn scramble(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) % WIDTH as u32)
        .collect()
}

impl Reference {
    pub fn new() -> Self {
        let far = WIDTH * DEGREE * FAR_LAYERS;
        Reference {
            near_idx: scramble(NEAR),
            near_w: vec![0.5; NEAR],
            far_idx: scramble(far),
            far_w: vec![0.25; far],
            x: vec![1.0; FAR_ROWS * WIDTH],
            y: [(); 2].map(|()| Mutex::new(vec![0.0; FAR_ROWS * WIDTH])),
        }
    }

    /// One thread's share of a pass: the three kinds of work the kernels
    /// under test are made of, each a few milliseconds. Dependent
    /// multiply-adds in registers; a gather whose operands stay in the
    /// near caches; a constant-degree sparse layer pass that streams its
    /// weights from the far cache.
    fn pass(&self, thread: usize) -> Duration {
        let mut y = self.y[thread].lock().expect("no pass panics");
        let x = &self.x;
        let t = Instant::now();
        let (mul, add) = (
            black_box([0.999_999f32; LANES]),
            black_box([1e-7f32; LANES]),
        );
        let mut acc = [1.0f32; LANES];
        for _ in 0..800_000 {
            for j in 0..LANES {
                acc[j] = acc[j] * mul[j] + add[j];
            }
        }
        black_box(acc);

        let mut sum = 0.0f32;
        for _ in 0..24 {
            for (i, w) in self.near_idx.iter().zip(&self.near_w) {
                sum += w * x[*i as usize];
            }
        }
        black_box(sum);

        let layers = self
            .far_idx
            .chunks_exact(WIDTH * DEGREE)
            .zip(self.far_w.chunks_exact(WIDTH * DEGREE));
        for (idx, w) in layers {
            for (xr, yr) in x.chunks_exact(WIDTH).zip(y.chunks_exact_mut(WIDTH)) {
                let edges = idx.chunks_exact(DEGREE).zip(w.chunks_exact(DEGREE));
                for (out, (ji, jw)) in yr.iter_mut().zip(edges) {
                    *out = ji.iter().zip(jw).map(|(i, w)| w * xr[*i as usize]).sum();
                }
            }
        }
        black_box(&mut *y);
        t.elapsed()
    }

    /// Times one pass on two threads at once, as the pool runs the work
    /// under test; the slower thread counts.
    pub fn sample(&self) -> Duration {
        std::thread::scope(|s| {
            let other = s.spawn(|| self.pass(1));
            let here = self.pass(0);
            here.max(other.join().expect("reference thread"))
        })
    }
}

/// Speed of the machine between two samples, 1 at the nominal level.
pub fn speed(before: Duration, after: Duration) -> f64 {
    2.0 * NOMINAL.as_secs_f64() / (before + after).as_secs_f64()
}

/// Puts the ops of a loop on the reference clock: a sample is taken
/// after every op, and the op is scaled by that one and the one before.
pub struct Scaler<'a> {
    reference: &'a Reference,
    last: Duration,
    /// The machine's speed around every op so far.
    pub speeds: Vec<f64>,
    /// Time the samples took.
    pub spent: Duration,
}

impl<'a> Scaler<'a> {
    pub fn new(reference: &'a Reference) -> Self {
        Scaler {
            reference,
            last: reference.sample(),
            speeds: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// What an op that just took `wall` would have taken at nominal speed.
    pub fn scale(&mut self, wall: Duration) -> Duration {
        let t = Instant::now();
        let next = self.reference.sample();
        self.spent += t.elapsed();
        let speed = speed(self.last, next);
        self.last = next;
        self.speeds.push(speed);
        wall.mul_f64(speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_machine_at_half_speed_halves_every_duration() {
        assert_eq!(speed(NOMINAL, NOMINAL), 1.0);
        assert_eq!(speed(NOMINAL * 2, NOMINAL * 2), 0.5);
        // A level that changes under the op counts half on each side.
        assert!((speed(NOMINAL, NOMINAL * 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn an_op_is_scaled_by_the_samples_around_it() {
        let reference = Reference::new();
        let mut scaler = Scaler::new(&reference);
        let wall = Duration::from_millis(20);
        let scaled = scaler.scale(wall);
        let speed = scaler.speeds[0];
        assert!(speed > 0.0 && speed.is_finite());
        assert!((scaled.as_secs_f64() - wall.as_secs_f64() * speed).abs() < 1e-9);
    }
}
