(** Page-granular LRU buffer cache.  Keys are (file id, page number),
    packed into one int: file ids must lie in [\[0, 2^31)] and pages in
    [\[0, 2^32)], and every operation raises [Invalid_argument] outside
    those ranges rather than alias two pages.  The cache stores residency
    only — files in this simulation are phantom. *)

type t

val create : capacity_pages:int -> t
(** [create ~capacity_pages]: capacity 0 disables caching. *)

val size : t -> int
val capacity : t -> int

val mem : t -> file:int -> page:int -> bool
(** Residency without touching recency. *)

val touch : t -> file:int -> page:int -> bool
(** [touch t ~file ~page] is [true] on a hit (promoting to MRU); [false]
    on a miss (caller fetches and {!insert}s). *)

val insert : t -> file:int -> page:int -> unit
(** Make the page resident at MRU, evicting the LRU page if at capacity. *)

val remove : t -> file:int -> page:int -> unit
(** Discard one resident page (e.g. a checksum-failed copy); no-op if
    absent. *)

val drop_file : t -> int -> unit
(** Discard all pages of a deleted file. *)

val clear : t -> unit
(** Empty the cache (cold-cache experiments). *)
