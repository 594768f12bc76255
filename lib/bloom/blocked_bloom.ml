(** Cache-friendly blocked Bloom filters (Putze et al., JEA 2010; paper
    Sec. 3.2).

    The bit space is divided into cache-line-sized blocks (512 bits).  The
    first hash picks a block; the remaining hashes test bits within that
    block only, so a probe costs one CPU cache miss instead of [k].  The
    price is roughly one extra bit per key for the same false-positive
    rate, which [create] adds on top of the standard sizing. *)

let block_bits = 512 (* one 64-byte cache line *)

type t = {
  bits : Lsm_util.Bitset.t;
  nblocks : int;
  k : int;
}

let create ~expected ~fpr =
  let m, k = Bloom.params ~expected ~fpr in
  (* One extra bit per key compensates for block-occupancy variance. *)
  let m = m + max expected 1 in
  let nblocks = max 1 ((m + block_bits - 1) / block_bits) in
  { bits = Lsm_util.Bitset.create (nblocks * block_bits); nblocks; k }

(* Bit [i]: block [mix64 h], in-block offset [double_hash h (i + 1)]. *)
let position t h1 h2 i =
  (h1 land max_int mod t.nblocks * block_bits)
  + ((h1 + ((i + 1) * h2)) land max_int mod block_bits)

(** [add t h] inserts a key by its hash. *)
let add t h =
  let h1 = Hashing.mix64 h and h2 = Hashing.step h in
  for i = 0 to t.k - 1 do
    Lsm_util.Bitset.set t.bits (position t h1 h2 i)
  done

(** [contains t h] is [false] only if the key was never added. *)
let contains t h =
  let h1 = Hashing.mix64 h and h2 = Hashing.step h in
  let i = ref 0 in
  while !i < t.k && Lsm_util.Bitset.get t.bits (position t h1 h2 !i) do
    incr i
  done;
  !i >= t.k

let k t = t.k
let bits t = t.bits
let bit_count t = t.nblocks * block_bits
let byte_size t = Lsm_util.Bitset.byte_size t.bits

(** The whole point: one cache line per probe. *)
let cache_lines_per_probe _t = 1

let hashes_per_probe _t = 2
