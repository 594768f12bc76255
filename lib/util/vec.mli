(** Minimal growable arrays (OCaml 5.1 predates [Dynarray]); the
    concurrent component builder appends merged rows while writers
    binary-search the sorted prefix. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val clear : 'a t -> unit
(** Empty the vector, keeping its storage for reuse. *)

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** @raise Invalid_argument out of bounds. *)

val to_array : 'a t -> 'a array

val binary_search :
  cmp:('a -> 'b -> int) -> cost:int ref -> 'a t -> 'b -> int option
(** [binary_search ~cmp ~cost t key]: index of an element equal to [key]
    in the (sorted) contents, counting comparisons into [cost]. *)
