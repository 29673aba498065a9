(** Products derived from an immutable value, kept on the value itself.

    An encoding of a program, the interpreter generated for an encoding,
    the threaded closures of a host program: each is a pure function of a
    value that never changes, so every caller holding the value shares
    one copy, and the GC frees it with the value.  Domains may share a
    cache: domains that miss together each build, and all adopt the
    first product published. *)

type t

val create : unit -> t

type ('p, 'a) key
(** Products of type ['a], told apart by structurally compared parameters
    of type ['p]. *)

val key : unit -> ('p, 'a) key

val get : t -> ('p, 'a) key -> 'p -> (unit -> 'a) -> 'a
(** [get cache key p build] is the product cached under [key] and [p],
    built by [build ()] on a miss. *)
