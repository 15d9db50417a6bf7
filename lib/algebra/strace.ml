(** Ground terms of sort [state]: traces of update applications
    starting from an initializer (paper: the set T of ground terms of
    sort state is the smallest set containing [initiate] and closed
    under symbolic application of the other update functions).

    Since the application is encapsulated by its queries and updates,
    the current state {e is} the trace of operations applied so far
    (paper Section 5.4). *)

open Fdbs_kernel

type t =
  | Init of string  (** initializer name, e.g. [initiate] *)
  | Apply of string * Value.t list * t
      (** [Apply (u, params, s)]: update [u] with parameter values
          applied to state [s] *)

let init name = Init name
let apply name params trace = Apply (name, params, trace)

let rec length = function
  | Init _ -> 0
  | Apply (_, _, s) -> 1 + length s

let rec equal a b =
  match (a, b) with
  | Init n1, Init n2 -> n1 = n2
  | Apply (u1, p1, s1), Apply (u2, p2, s2) ->
    u1 = u2 && List.length p1 = List.length p2
    && List.for_all2 Value.equal p1 p2 && equal s1 s2
  | (Init _ | Apply _), _ -> false

(** The trace as an algebraic term; parameter values are tagged with
    the sorts declared for the update. *)
let rec to_aterm (sg : Asig.t) : t -> Aterm.t = function
  | Init name -> Aterm.App (name, [])
  | Apply (u, params, s) ->
    (match Asig.find_update sg u with
     | None -> invalid_arg (Fmt.str "Strace.to_aterm: unknown update %s" u)
     | Some o ->
       let param_sorts = Asig.param_args o in
       if List.length params <> List.length param_sorts then
         invalid_arg (Fmt.str "Strace.to_aterm: %s applied to %d parameters, expected %d"
                        u (List.length params) (List.length param_sorts))
       else
         let args =
           List.map2 (fun v srt -> Aterm.Val (v, srt)) params param_sorts
         in
         Aterm.App (u, args @ [ to_aterm sg s ]))

(** Parse a ground state term back into a trace; [None] if the term is
    not of the canonical shape. *)
let rec of_aterm (sg : Asig.t) (t : Aterm.t) : t option =
  match t with
  | Aterm.App (name, []) when Asig.is_update sg name -> Some (Init name)
  | Aterm.App (u, args) when Asig.is_update sg u ->
    (match List.rev args with
     | state_arg :: rev_params ->
       let params =
         List.rev_map (function Aterm.Val (v, _) -> Some v | _ -> None) rev_params
       in
       if List.for_all Option.is_some params then
         Option.map
           (fun s -> Apply (u, List.map Option.get params, s))
           (of_aterm sg state_arg)
       else None
     | [] -> None)
  | Aterm.Var _ | Aterm.Val _ | Aterm.App _ | Aterm.Exists _ | Aterm.Forall _ -> None

(** Values of each parameter sort mentioned in the trace: the trace's
    active domain. *)
let active_domain (sg : Asig.t) (trace : t) : Domain.t =
  let rec go acc = function
    | Init _ -> acc
    | Apply (u, params, s) ->
      let acc =
        match Asig.find_update sg u with
        | None -> acc
        | Some o ->
          List.fold_left2
            (fun acc v srt -> Domain.extend srt v acc)
            acc params (Asig.param_args o)
      in
      go acc s
  in
  go Domain.empty trace

(** All traces of exactly [depth] updates over parameter values drawn
    from [domain], rooted at each initializer. *)
let enumerate (sg : Asig.t) ~(domain : Domain.t) ~(depth : int) : t list =
  let inits = List.map (fun (o : Asig.op) -> Init o.Asig.oname) (Asig.initializers sg) in
  let extend trace =
    List.concat_map
      (fun (o : Asig.op) ->
        let carriers = List.map (Domain.carrier domain) (Asig.param_args o) in
        List.map (fun params -> Apply (o.Asig.oname, params, trace)) (Util.cartesian carriers))
      (Asig.transformers sg)
  in
  let rec go level acc =
    if level = 0 then acc else go (level - 1) (List.concat_map extend acc)
  in
  go depth inits

let rec pp ppf = function
  | Init name -> Fmt.string ppf name
  | Apply (u, [], s) -> Fmt.pf ppf "%s(%a)" u pp s
  | Apply (u, params, s) ->
    Fmt.pf ppf "%s(%a, %a)" u Fmt.(list ~sep:(any ", ") Value.pp) params pp s

let to_string t = Fmt.str "%a" pp t
