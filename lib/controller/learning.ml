open Packet

type t = {
  app : Api.app;
  (* (switch, mac) -> port *)
  locations : (int * Mac.t, int) Hashtbl.t;
  (* (switch, mac) -> port and send time of the last install *)
  sent : (int * Mac.t, int * float) Hashtbl.t;
  mutable installs : int;
  idle_timeout : float option;
  mutable tree : (int, int list) Hashtbl.t option;
      (* spanning-tree ports per switch, computed at the first switch_up *)
}

let lookup t ~switch_id mac = Hashtbl.find_opt t.locations (switch_id, mac)

let create ?(idle_timeout = Some 60.0) () =
  let t_ref = ref None in
  let get () = Option.get !t_ref in
  (* flooding follows spanning-tree ports so cyclic topologies do not
     melt down *)
  let tree ctx =
    let t = get () in
    match t.tree with
    | Some tree -> tree
    | None ->
      let tree = Topo.Path.spanning_tree (Api.topology ctx) in
      t.tree <- Some tree;
      tree
  in
  let switch_up ctx ~switch_id:_ ~ports:_ = ignore (tree ctx) in
  (* a switch that went down lost its table, or will be resynced to the
     permanent rules only *)
  let switch_down _ctx ~switch_id =
    Hashtbl.filter_map_inplace
      (fun (sw, _) v -> if sw = switch_id then None else Some v)
      (get ()).sent
  in
  (* the same install was sent less than an idle timeout ago: the switch
     starts its idle clock when the rule lands, so the rule is in flight
     or installed, and packet-ins until it lands need no second copy *)
  let installed ctx t key out_port =
    match Hashtbl.find_opt t.sent key with
    | Some (port, at) ->
      port = out_port
      && Api.time ctx -. at
         < Option.value t.idle_timeout ~default:Float.infinity
    | None -> false
  in
  let packet_in ctx ~switch_id ~port ~reason:_
      (payload : Openflow.Message.payload) =
    let t = get () in
    let h = payload.headers in
    (* learn the source *)
    if not (Mac.is_multicast h.eth_src) then
      Hashtbl.replace t.locations (switch_id, h.eth_src) port;
    (* forward or flood *)
    match
      if Mac.is_broadcast h.eth_dst || Mac.is_multicast h.eth_dst then None
      else Hashtbl.find_opt t.locations (switch_id, h.eth_dst)
    with
    | Some out_port ->
      let key = (switch_id, h.eth_dst) in
      if not (installed ctx t key out_port) then begin
        Hashtbl.replace t.sent key (out_port, Api.time ctx);
        t.installs <- t.installs + 1;
        Api.install ctx ~switch_id ~priority:10 ?idle_timeout:t.idle_timeout
          { Flow.Pattern.any with eth_dst = Some h.eth_dst }
          (Flow.Action.forward out_port)
      end;
      Api.packet_out ctx ~switch_id ~in_port:port
        [ Flow.Action.Output (Physical out_port) ]
        payload
    | None ->
      let ports =
        Option.value (Hashtbl.find_opt (tree ctx) switch_id) ~default:[]
      in
      Api.packet_out ctx ~switch_id ~in_port:port
        (List.filter_map
           (fun p ->
             if p = port then None else Some (Flow.Action.Output (Physical p)))
           ports)
        payload
  in
  let app =
    { Api.default_app with switch_up; switch_down; packet_in }
  in
  let t =
    { app; locations = Hashtbl.create 64; sent = Hashtbl.create 64;
      installs = 0; idle_timeout; tree = None }
  in
  t_ref := Some t;
  t

let app t = t.app
let installs t = t.installs
