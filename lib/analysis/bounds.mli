(** Bounds proofs: which memory ops can never index out of range?

    Runs the interval analysis (optionally seeded with facts the caller
    knows — concrete loop bounds, the padded cell count) and, for every
    load/store/gather/scatter whose touched-index interval provably fits
    inside the buffer the caller vouches lengths for, records the op id
    in the {e proved} set.  The batched execution engine consumes that
    set to drop its per-access OCaml bounds checks; the other engines
    check every access.  Only failure checks are
    elided — never value-affecting clamps — so elision cannot change
    results, only skip branches that were proved untakeable. *)

type proved = (int, unit) Hashtbl.t
(** Op ids of accesses proved in-bounds. *)

val is_proved : proved -> Ir.Op.op -> bool
val cardinal : proved -> int

val elidable : Ir.Op.op -> bool
(** Ops the batched engine has unchecked variants for.  Calls are never
    tagged: externs do their own internal indexing. *)

val prove_func :
  ?seed:(Ir.Value.t * Interval.v) list ->
  len_of:(Interval.origin -> int option) ->
  Ir.Func.func ->
  proved
(** [prove_func ~len_of ?seed f] returns the set of access ops proved
    in-bounds.  [len_of origin] is the guaranteed minimum length (in
    elements) of the buffer behind [origin], or [None] if unknown. *)

val elidable_count : Ir.Func.func -> int
(** Count of elidable access ops in a function, for reporting proof
    coverage. *)
