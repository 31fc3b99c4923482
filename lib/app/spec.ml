(** Run specification and its checkpoint-metadata codec.  See the
    interface for the key table. *)

type protocol = S1 | S1s2 | Restitution | S1_paced

type tissue = {
  nx : int;
  ny : int;
  dx : float;
  sigma : float;
  splitting : Tissue.Monodomain.splitting;
  protocol : protocol;
  stim_width : int;
  s2_start : float;
  s1_count : int;
  s1_interval : float;
  s2_coupling : float;
  block_check : float;
}

type population = Cells of int | Tissue of tissue
type health = { stride : int; policy : Obs.Health.policy }
type checkpoint = { dir : string; stride : int; keep : int }

type t = {
  model : string;
  width : int;
  layout : string;
  no_lut : bool;
  autovec : bool;
  spline : bool;
  engine : Sim.Driver.engine;
  tile : int;
  specialize : bool;
  threads : int;
  dt : float;
  steps : int;
  population : population;
  health : health option;
  checkpoint : checkpoint option;
}

let load_model (name : string) : (Easyml.Model.t, Easyml.Diag.t) result =
  match Models.Registry.find name with
  | Some e -> Ok (Models.Registry.model e)
  | None when Sys.file_exists name ->
      Ok
        (Easyml.Sema.analyze_source
           ~name:Filename.(remove_extension (basename name))
           (In_channel.with_open_bin name In_channel.input_all))
  | None ->
      Error
        (Easyml.Diag.makef ~sev:Easyml.Diag.Error ~code:"unknown-model"
           "unknown model %s (not in registry, not a file)" name)

let codegen_config ~width ~layout ~no_lut ~autovec ~spline : Codegen.Config.t
    =
  let base =
    if autovec then Codegen.Config.autovec ~width
    else if width = 1 then Codegen.Config.baseline
    else Codegen.Config.mlir ~width
  in
  let base =
    match Runtime.Layout.of_string layout with
    | Some l -> { base with layout = l }
    | None when layout = "" -> base
    | None -> Fmt.failwith "unknown layout %s (aos, soa, aosoa<N>)" layout
  in
  { base with use_lut = not no_lut; lut_spline = spline }

let config (s : t) : Codegen.Config.t =
  codegen_config ~width:s.width ~layout:s.layout ~no_lut:s.no_lut
    ~autovec:s.autovec ~spline:s.spline

(* -- names ------------------------------------------------------------ *)

let engines = Sim.Driver.[ Fused; Batched; Native; Compiled; Reference ]

let splitting_name : Tissue.Monodomain.splitting -> string = function
  | Godunov -> "godunov"
  | Strang -> "strang"

let protocol_name = function
  | S1 -> "s1"
  | S1s2 -> "s1s2"
  | Restitution -> "restitution"
  | S1_paced -> "s1-paced"

let of_name (name : 'a -> string) (all : 'a list) (s : string) : 'a option =
  List.find_opt (fun x -> name x = s) all

(* -- tissue ----------------------------------------------------------- *)

(* the S1 pulse every 1000 ms; the unused S2 and train fields keep the
   tissue command's defaults *)
let paced_cable ~(cells : int) : tissue =
  { nx = max 2 cells; ny = 1; dx = 0.01;
    sigma = Tissue.Monodomain.default_config.sigma; splitting = Godunov;
    protocol = S1_paced; stim_width = 5; s2_start = 340.0; s1_count = 4;
    s1_interval = 1000.0; s2_coupling = 300.0; block_check = 100.0 }

let geometry (ts : tissue) : Tissue.Geometry.t =
  if ts.ny <= 1 then Tissue.Geometry.cable ~n:ts.nx ~dx:ts.dx
  else Tissue.Geometry.sheet ~nx:ts.nx ~ny:ts.ny ~dx:ts.dx

let protocol (ts : tissue) (geom : Tissue.Geometry.t) : Tissue.Protocol.t =
  let width = ts.stim_width in
  match ts.protocol with
  | S1 -> Tissue.Protocol.s1 ~width geom
  | S1s2 -> Tissue.Protocol.s1s2 ~width ~s2_start:ts.s2_start geom
  | Restitution ->
      Tissue.Protocol.restitution ~width ~n_s1:ts.s1_count
        ~interval:ts.s1_interval ~s2_coupling:ts.s2_coupling geom
  | S1_paced -> Tissue.Protocol.s1_paced ~width ~period:ts.s1_interval geom

let monodomain_config (ts : tissue) : Tissue.Monodomain.config =
  {
    Tissue.Monodomain.default_config with
    sigma = ts.sigma;
    splitting = ts.splitting;
    block_check_ms = (if ts.block_check > 0.0 then Some ts.block_check else None);
  }

(* -- metadata codec ---------------------------------------------------- *)

let bits = Obs.Recorder.hex_of_float

let to_meta (s : t) : (string * string) list =
  let tissue_keys, cell_keys =
    match s.population with
    | Cells n -> ([], [ ("kind", "cell"); ("ncells", string_of_int n) ])
    | Tissue ts ->
        ( [
            ("nx", string_of_int ts.nx);
            ("ny", string_of_int ts.ny);
            ("dx_bits", bits ts.dx);
            ("sigma_bits", bits ts.sigma);
            ("splitting", splitting_name ts.splitting);
            ("protocol", protocol_name ts.protocol);
            ("stim_width", string_of_int ts.stim_width);
            ("s2_start_bits", bits ts.s2_start);
            ("s1_count", string_of_int ts.s1_count);
            ("s1_interval_bits", bits ts.s1_interval);
            ("s2_coupling_bits", bits ts.s2_coupling);
            ("block_check_bits", bits ts.block_check);
          ],
          [ ("kind", "tissue") ] )
  in
  [
    ("model_ref", s.model);
    ("steps_total", string_of_int s.steps);
    ("threads", string_of_int s.threads);
    ("cli_width", string_of_int s.width);
    ("cli_layout", s.layout);
    ("cli_no_lut", string_of_bool s.no_lut);
    ("cli_autovec", string_of_bool s.autovec);
    ("cli_spline", string_of_bool s.spline);
    ("engine_req", Sim.Driver.engine_name s.engine);
  ]
  @ tissue_keys @ cell_keys
  @ [
      ("dt_bits", bits s.dt);
      ("tile", string_of_int s.tile);
      ("specialized", string_of_bool s.specialize);
    ]

let of_meta (meta : (string * string) list) : (t, Easyml.Diag.t) result =
  let ( let* ) = Result.bind in
  let err fmt =
    Fmt.kstr
      (fun m ->
        Error (Easyml.Diag.make ~sev:Easyml.Diag.Error ~code:"checkpoint-meta" m))
      fmt
  in
  let field key parse =
    match List.assoc_opt key meta with
    | None -> err "checkpoint lacks run metadata key %s" key
    | Some v -> (
        match parse v with
        | Some x -> Ok x
        | None -> err "checkpoint has %s=%S, which is not a valid value" key v)
  in
  let int key = field key int_of_string_opt in
  let bool key = field key bool_of_string_opt in
  let float key = field key Obs.Recorder.float_of_hex in
  let* model =
    field "model_ref" (fun r ->
        if Models.Registry.find r <> None || Sys.file_exists r then Some r
        else None)
  in
  let* steps = int "steps_total" in
  let* threads = int "threads" in
  let* width = int "cli_width" in
  let* layout =
    field "cli_layout" (fun l ->
        if l = "" || Runtime.Layout.of_string l <> None then Some l else None)
  in
  let* no_lut = bool "cli_no_lut" in
  let* autovec = bool "cli_autovec" in
  let* spline = bool "cli_spline" in
  let* engine = field "engine_req" (of_name Sim.Driver.engine_name engines) in
  let* population =
    let* kind = field "kind" (fun k -> Some k) in
    match kind with
    | "cell" ->
        let* n = int "ncells" in
        Ok (Cells n)
    | "tissue" ->
        let* nx = int "nx" in
        let* ny = int "ny" in
        let* dx = float "dx_bits" in
        let* sigma = float "sigma_bits" in
        let* splitting =
          field "splitting"
            (of_name splitting_name Tissue.Monodomain.[ Godunov; Strang ])
        in
        let* protocol =
          field "protocol"
            (of_name protocol_name [ S1; S1s2; Restitution; S1_paced ])
        in
        let* stim_width = int "stim_width" in
        let* s2_start = float "s2_start_bits" in
        let* s1_count = int "s1_count" in
        let* s1_interval = float "s1_interval_bits" in
        let* s2_coupling = float "s2_coupling_bits" in
        let* block_check = float "block_check_bits" in
        Ok
          (Tissue
             { nx; ny; dx; sigma; splitting; protocol; stim_width; s2_start;
               s1_count; s1_interval; s2_coupling; block_check })
    | k -> err "checkpoint has kind=%S, expected cell or tissue" k
  in
  let* dt = float "dt_bits" in
  let* tile = int "tile" in
  let* specialize = bool "specialized" in
  Ok
    { model; width; layout; no_lut; autovec; spline; engine; tile; specialize;
      threads; dt; steps; population; health = None; checkpoint = None }
