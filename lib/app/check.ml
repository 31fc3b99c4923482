(** Model linting, deep verification and translation validation over a
    list of model references. *)

module T = Analysis.Transval

type summary = { certificates : int; unknown : int; refuted : int; ms : float }

let error code fmt = Easyml.Diag.makef ~sev:Easyml.Diag.Error ~code fmt
let configs = [ Codegen.Config.baseline; Codegen.Config.mlir ~width:8 ]

(* [f] over one kernel configuration; a failing compile, or a refuted
   pass under validation, becomes a finding *)
let with_kernel emit ~code (cfg : Codegen.Config.t) f =
  match f () with
  | exception Codegen.Cache.Validation_failed cert ->
      Option.iter emit (T.diag_of_cert cert)
  | exception e ->
      emit
        (error code "%s (%s)" (Printexc.to_string e)
           (Codegen.Config.describe cfg))
  | () -> ()

let model ~deep ~validate emit (name : string) : unit =
  match Spec.load_model name with
  | exception e -> emit (error "load-failed" "%s" (Printexc.to_string e))
  | Error d -> emit d
  | Ok m ->
      List.iter emit (Analysis.Lint.check m);
      if deep then
        List.iter
          (fun cfg ->
            with_kernel emit ~code:"codegen-failed" cfg (fun () ->
                let g = Codegen.Cache.generate cfg m in
                List.iter
                  (fun err ->
                    emit
                      (error "deep-verify" "%a (%s)" Ir.Verifier.pp_error err
                         (Codegen.Config.describe cfg)))
                  (Analysis.Deep.verify_module g.Codegen.Kernel.modl)))
          configs;
      if validate then
        List.iter
          (fun cfg ->
            with_kernel emit ~code:"codegen-failed" cfg (fun () ->
                let g = Codegen.Cache.generate cfg m in
                (* the specialized pipeline, including the composite
                   specialize obligation *)
                with_kernel emit ~code:"specialize-failed" cfg (fun () ->
                    ignore (Codegen.Cache.specialize g ~dt:0.01 ~ncells_pad:64))))
          configs

let models ~deep ~validate names =
  if validate then begin
    Codegen.Cache.set_validation true;
    Codegen.Cache.clear ()
  end;
  let found = ref [] in
  let emit file d = found := (file, d) :: !found in
  List.iter (fun name -> model ~deep ~validate (emit name) name) names;
  let summary =
    if not validate then None
    else begin
      let n = ref 0 and unknown = ref 0 and refuted = ref 0 and ms = ref 0.0 in
      List.iter
        (fun (key, cs) ->
          List.iter
            (fun (c : T.cert) ->
              incr n;
              ms := !ms +. c.c_ms;
              if T.is_refuted c then incr refuted
              else if T.is_unknown c then begin
                incr unknown;
                Option.iter (emit key) (T.diag_of_cert c)
              end)
            cs)
        (Codegen.Cache.certificates ());
      Some { certificates = !n; unknown = !unknown; refuted = !refuted; ms = !ms }
    end
  in
  (List.rev !found, summary)

let certificates_json () =
  let items =
    List.concat_map
      (fun (key, cs) ->
        List.map
          (fun c ->
            Printf.sprintf "{\"key\": \"%s\", \"cert\": %s}"
              (Easyml.Diag.json_escape key) (T.cert_to_json c))
          cs)
      (Codegen.Cache.certificates ())
  in
  "[" ^ String.concat ",\n " items ^ "]\n"
