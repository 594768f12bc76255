(** K-way merge of sorted streams — every reconciling pass in the engine
    (LSM scans and merges, sorted-view builds, primary repair, the
    concurrent component builder).

    A binary min-heap of stream ids [0 .. streams-1] ordered by
    [(head key, stream id)].  The caller owns the streams: it pushes a
    stream with its head key, pops the minimum stream id, reads that
    stream's item, and pushes the stream's successor.  Nothing is
    allocated per item.  The [cmp] calls are exactly those of a classic
    array heap over [(key, stream)] pairs, call for call. *)

type 'k t

val create : streams:int -> charge:(int -> unit) -> ('k -> 'k -> int) -> 'k t
(** [create ~streams ~charge cmp]: an empty merge.  After each {!push} or
    {!pop} that compared keys, [charge n] receives the count [n]; nothing
    else happens between those comparisons, so charging them there, one
    by one, costs exactly what charging inside [cmp] would. *)

val is_empty : 'k t -> bool

val push : 'k t -> int -> 'k -> unit
(** [push t s key] enters stream [s] with head [key]; [s] must not be in
    the heap already. *)

val pop : 'k t -> int
(** Remove and return the stream with the smallest [(head, id)].
    @raise Invalid_argument if empty. *)

val last : 'k t -> 'k
(** Head key of the most recently popped stream; read it before the next
    {!pop} to compare consecutive keys.  Meaningless before the first
    pop. *)
