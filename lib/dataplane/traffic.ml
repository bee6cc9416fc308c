type flow_spec = {
  src : int;
  dst : int;
  rate_pps : float;
  pkt_size : int;
  start : float;
  stop : float;
  tp_dst : int;
  tp_src : int option;
}

let default_flow ~src ~dst =
  { src; dst; rate_pps = 100.0; pkt_size = 1000; start = 0.0; stop = 1.0;
    tp_dst = 80; tp_src = None }

(* A flow's next send time: a float-only record keeps it unboxed, so
   moving it on allocates nothing *)
type next_send = { mutable at : float }

(* Schedule a flow's packet train: one event closure, built here, sends
   and then reschedules itself [gap ()] after its own time.  A
   fixed-port flow sends one immutable packet every time (forwarding
   never writes it); a fresh-port flow builds a packet per send. *)
let flow net (spec : flow_spec) ~gap =
  let sent = ref 0 in
  let sim = Network.sim net in
  let make tp_src =
    Network.make_pkt ~size:spec.pkt_size ~tp_dst:spec.tp_dst ~tp_src
      ~src:spec.src ~dst:spec.dst ()
  in
  let fixed = Option.map make spec.tp_src in
  let next = { at = spec.start } in
  let rec send () =
    let pkt =
      match fixed with
      | Some pkt -> pkt
      | None -> make (10000 + (!sent mod 50000))
    in
    incr sent;
    Network.send_from net ~host:spec.src pkt;
    let time = next.at +. gap () in
    if time <= spec.stop then begin
      next.at <- time;
      Sim.schedule_at sim ~time send
    end
  in
  if next.at <= spec.stop then Sim.schedule_at sim ~time:next.at send;
  sent

let cbr net (spec : flow_spec) =
  let interval = 1.0 /. spec.rate_pps in
  flow net spec ~gap:(fun () -> interval)

let poisson net ~prng (spec : flow_spec) =
  flow net spec ~gap:(fun () ->
    Util.Prng.exponential prng ~mean:(1.0 /. spec.rate_pps))

(** Ping application: echo requests carry a tag; the destination host
    answers with the tag mirrored; RTTs are recorded at the source.

    [install_responders net] must be called once so that every host
    answers pings (it composes with an existing receive handler). *)

let ping_tag_bit = 0x100000  (* distinguishes requests from replies *)

let install_responders net =
  List.iter
    (fun (h : Network.host) ->
      let previous = h.on_receive in
      h.on_receive <-
        Some
          (fun pkt ->
            (match previous with Some f -> f pkt | None -> ());
            if pkt.tag land ping_tag_bit <> 0 then begin
              (* answer: swap src/dst, clear the request bit *)
              let hdr = pkt.hdr in
              let reply_hdr =
                { hdr with
                  eth_src = hdr.eth_dst; eth_dst = hdr.eth_src;
                  ip4_src = hdr.ip4_dst; ip4_dst = hdr.ip4_src;
                  tp_src = hdr.tp_dst; tp_dst = hdr.tp_src }
              in
              Network.send_from net ~host:h.host_id
                { pkt with hdr = reply_hdr; tag = pkt.tag land lnot ping_tag_bit }
            end))
    (Network.host_list net)

type ping_result = { rtts : (int * float) list ref; lost : unit -> int }

let ping net ~src ~dst ~count ~interval =
  let rtts = ref [] in
  let sent_at : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let h = Network.host net src in
  let previous = h.on_receive in
  h.on_receive <-
    Some
      (fun pkt ->
        (match previous with Some f -> f pkt | None -> ());
        if pkt.tag land ping_tag_bit = 0 then begin
          match Hashtbl.find_opt sent_at pkt.tag with
          | Some t0 ->
            Hashtbl.remove sent_at pkt.tag;
            rtts := (pkt.tag, Network.now net -. t0) :: !rtts
          | None -> ()
        end);
  let sim = Network.sim net in
  for i = 0 to count - 1 do
    Sim.schedule sim ~delay:(float_of_int i *. interval) (fun () ->
      let tag = i lor ping_tag_bit in
      Hashtbl.replace sent_at i (Network.now net);
      let pkt = Network.make_pkt ~size:100 ~tag ~src ~dst () in
      Network.send_from net ~host:src pkt)
  done;
  { rtts; lost = (fun () -> Hashtbl.length sent_at) }

let random_pair_specs ?(fixed_ports = false) ?stagger ~prng ~host_ids ~flows
    ~rate_pps ~pkt_size ~stop () =
  if Array.length host_ids < 2 then
    invalid_arg "Traffic.random_pair_specs: < 2 hosts";
  List.init flows (fun i ->
    let src = Util.Prng.pick prng host_ids in
    let rec pick_dst () =
      let d = Util.Prng.pick prng host_ids in
      if d = src then pick_dst () else d
    in
    let dst = pick_dst () in
    let tp_src = if fixed_ports then Some (20000 + i) else None in
    let start =
      match stagger with
      | Some s when s > 0.0 -> Util.Prng.float prng s
      | Some _ | None -> 0.0
    in
    { (default_flow ~src ~dst) with rate_pps; pkt_size; start; stop; tp_src })

let random_pairs ?fixed_ports net ~prng ~flows ~rate_pps ~pkt_size ~stop =
  let ids = Array.of_list (List.map (fun (h : Network.host) -> h.host_id)
                             (Network.host_list net)) in
  if Array.length ids < 2 then invalid_arg "Traffic.random_pairs: < 2 hosts";
  random_pair_specs ?fixed_ports ~prng ~host_ids:ids ~flows ~rate_pps
    ~pkt_size ~stop ()
  |> List.map (cbr net)
