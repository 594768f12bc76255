(** 64-bit hash mixing for Bloom filters and hash partitioning. *)

val mix64 : int -> int
(** The SplitMix64 finalizer: a strong bijective mixer. *)

val combine : int -> int -> int
(** Order-sensitive combination of two hashes (composite keys). *)

val hash_string : string -> int
(** FNV-1a over bytes, then mixed. *)

val step : int -> int
(** The odd stride [h2] of {!double_hash} (its base [h1] is [mix64 h]). *)

val double_hash : int -> int -> int
(** [double_hash h i]: the i-th probe seed under Kirsch-Mitzenmacher
    double hashing ([h1 + i*h2], [h2] odd). *)
