(** Cache-friendly blocked Bloom filters (Putze et al.; paper Sec. 3.2):
    the first hash picks a 512-bit block, remaining probes stay inside it
    — one CPU cache miss per probe, for ~one extra bit per key. *)

type t

val block_bits : int
(** 512: one 64-byte cache line. *)

val create : expected:int -> fpr:float -> t
val add : t -> int -> unit

val contains : t -> int -> bool
(** [false] only if the key was never added. *)

val k : t -> int
val bit_count : t -> int
val bits : t -> Lsm_util.Bitset.t (* the bit array, read-only *)
val byte_size : t -> int

val cache_lines_per_probe : t -> int
(** Always 1 — the point of the structure. *)

val hashes_per_probe : t -> int
