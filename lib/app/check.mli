(** The work behind [limpetmlir check]: lint models and, on request,
    deep-verify their kernels and translation-validate every pass. *)

type summary = {
  certificates : int;
  unknown : int;
  refuted : int;
  ms : float;  (** total validation time *)
}

val models :
  deep:bool ->
  validate:bool ->
  string list ->
  (string * Easyml.Diag.t) list * summary option
(** Check each model reference (a registry name or an EasyML file) and
    return its findings as [(file, diag)] pairs in the order found.
    [deep] also generates the scalar and 8-wide kernels and runs the
    deep IR verifier on them.  [validate] clears the kernel cache,
    compiles both kernels and a specialized variant with every pass
    proved, and adds one warning per undecided obligation plus the
    certificate summary.  A model that fails to load or compile is an
    error finding, never an exception. *)

val certificates_json : unit -> string
(** Every certificate collected so far, as a JSON array of
    [{"key": …, "cert": …}] objects. *)
