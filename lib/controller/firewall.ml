type t = { app : Api.app }

let push ~default_allow ~cookie entries ctx =
  let topo = Api.topology ctx in
  let pol = Netkat.Builder.firewall ~default_allow topo entries in
  let fdd = Netkat.Fdd.of_policy pol in
  let result =
    Netkat.Delta.compile ~switches:(Topo.Topology.switch_ids topo) None fdd
  in
  ignore (Api.push_delta ctx ~cookie ~previous:None result)

let create ?(default_allow = true) ?(cookie = 0x0f) entries =
  let installed = ref false in
  let switch_up ctx ~switch_id:_ ~ports:_ =
    if not !installed then begin
      installed := true;
      push ~default_allow ~cookie entries ctx
    end
  in
  { app = { (Api.default_app "firewall") with switch_up } }

let app t = t.app
