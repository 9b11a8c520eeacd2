(* On-disk layout (4 KiB blocks):
     block 0                superblock
     blocks 1..64           inode table (2048 inodes x 128 B)
     block 65               block bitmap (covers up to 32768 blocks)
     block 66               inode bitmap
     blocks 67..            data
   Inode (128 B): type(4) nlink(4) size(8) indirect(4) direct[12]x4.
   Directory entry (32 B): ino(4) name(28, NUL-padded); ino 0 = free. *)

let magic = 0x56474653L (* "VGFS" *)
let block_bytes = Buffer_cache.block_bytes
let inode_size = 128
let inodes_per_block = block_bytes / inode_size
let inode_table_start = 1
let inode_table_blocks = 64
let max_inodes = inode_table_blocks * inodes_per_block
let block_bitmap_block = 65
let inode_bitmap_block = 66
let data_start = 67
let direct_count = 12
let indirect_entries = block_bytes / 4
let dirent_size = 32
let name_max = 27

type itype = Reg | Dir

type stat = { ino : int; itype : itype; size : int; nlink : int }

type inode = {
  mutable itype : itype;
  mutable nlink : int;
  mutable size : int;
  mutable indirect : int; (* 0 = none *)
  direct : int array; (* 0 = hole *)
}

type t = { bc : Buffer_cache.t; charge_work : int -> unit }

let root_ino = 1

(* ------------------------------------------------------------------ *)
(* Low-level helpers                                                   *)

(* Metadata manipulation is instrumented kernel code: charge [n]
   kernel memory operations (the buffer cache charges separately for
   its own lookups and for data copies). *)
let charge t n = t.charge_work n

(* Bitmaps: bit set = in use. *)
let bitmap_get t block idx =
  let byte = idx / 8 and bit = idx mod 8 in
  Buffer_cache.view t.bc block (fun data ->
      Char.code (Bytes.get data byte) land (1 lsl bit) <> 0)

let bitmap_set t block idx v =
  let byte = idx / 8 and bit = idx mod 8 in
  Buffer_cache.modify t.bc block (fun data ->
      let cur = Char.code (Bytes.get data byte) in
      let next = if v then cur lor (1 lsl bit) else cur land lnot (1 lsl bit) in
      Bytes.set data byte (Char.chr next))

let bitmap_find_free t block limit =
  let found = ref None in
  Buffer_cache.modify t.bc block (fun data ->
      (try
         for byte = 0 to ((limit + 7) / 8) - 1 do
           let v = Char.code (Bytes.get data byte) in
           if v <> 0xff then
             for bit = 0 to 7 do
               let idx = (byte * 8) + bit in
               if idx < limit && v land (1 lsl bit) = 0 && !found = None then begin
                 found := Some idx;
                 raise Exit
               end
             done
         done
       with Exit -> ()));
  !found

let alloc_block t =
  charge t 250;
  let limit = Buffer_cache.blocks t.bc - data_start in
  match bitmap_find_free t block_bitmap_block limit with
  | None -> None
  | Some idx ->
      bitmap_set t block_bitmap_block idx true;
      let b = data_start + idx in
      Buffer_cache.write t.bc b Bytes.empty;
      Some b

let free_block t b =
  charge t 120;
  if b >= data_start then bitmap_set t block_bitmap_block (b - data_start) false

let free_blocks t =
  let limit = Buffer_cache.blocks t.bc - data_start in
  let count = ref 0 in
  for idx = 0 to limit - 1 do
    if not (bitmap_get t block_bitmap_block idx) then incr count
  done;
  !count

(* ------------------------------------------------------------------ *)
(* Inodes                                                              *)

let inode_location ino =
  let block = inode_table_start + (ino / inodes_per_block) in
  let off = ino mod inodes_per_block * inode_size in
  (block, off)

let read_inode t ino : inode option =
  if ino <= 0 || ino >= max_inodes then None
  else begin
    charge t 60;
    let block, off = inode_location ino in
    let result = ref None in
    Buffer_cache.modify t.bc block (fun data ->
        let ity = Bytes.get_int32_le data off in
        if ity <> 0l then begin
          let direct = Array.make direct_count 0 in
          for i = 0 to direct_count - 1 do
            direct.(i) <- Int32.to_int (Bytes.get_int32_le data (off + 20 + (4 * i)))
          done;
          result :=
            Some
              {
                itype = (if ity = 2l then Dir else Reg);
                nlink = Int32.to_int (Bytes.get_int32_le data (off + 4));
                size = Int64.to_int (Bytes.get_int64_le data (off + 8));
                indirect = Int32.to_int (Bytes.get_int32_le data (off + 16));
                direct;
              }
        end);
    !result
  end

let write_inode t ino (inode : inode option) =
  charge t 60;
  let block, off = inode_location ino in
  Buffer_cache.modify t.bc block (fun data ->
      match inode with
      | None -> Bytes.fill data off inode_size '\000'
      | Some i ->
          Bytes.set_int32_le data off (match i.itype with Reg -> 1l | Dir -> 2l);
          Bytes.set_int32_le data (off + 4) (Int32.of_int i.nlink);
          Bytes.set_int64_le data (off + 8) (Int64.of_int i.size);
          Bytes.set_int32_le data (off + 16) (Int32.of_int i.indirect);
          Array.iteri
            (fun k v -> Bytes.set_int32_le data (off + 20 + (4 * k)) (Int32.of_int v))
            i.direct)

let alloc_inode t itype =
  charge t 400;
  let rec claim () =
    match bitmap_find_free t inode_bitmap_block max_inodes with
    | None -> None
    | Some idx ->
        bitmap_set t inode_bitmap_block idx true;
        (* inode 0 is reserved: mark it and look again *)
        if idx = 0 then claim ()
        else begin
          write_inode t idx
            (Some { itype; nlink = 1; size = 0; indirect = 0; direct = Array.make direct_count 0 });
          Some idx
        end
  in
  claim ()

(* Map a logical block index to a disk block; optionally allocating. *)
let block_of t inode ~logical ~alloc =
  if logical < direct_count then begin
    if inode.direct.(logical) = 0 && alloc then begin
      match alloc_block t with
      | None -> None
      | Some b ->
          inode.direct.(logical) <- b;
          Some b
    end
    else if inode.direct.(logical) = 0 then None
    else Some inode.direct.(logical)
  end
  else begin
    let slot = logical - direct_count in
    if slot >= indirect_entries then None
    else begin
      if inode.indirect = 0 && alloc then begin
        match alloc_block t with
        | None -> ()
        | Some b -> inode.indirect <- b
      end;
      if inode.indirect = 0 then None
      else begin
        charge t 30;
        let current = ref 0 in
        Buffer_cache.modify t.bc inode.indirect (fun data ->
            current := Int32.to_int (Bytes.get_int32_le data (4 * slot)));
        if !current <> 0 then Some !current
        else if not alloc then None
        else begin
          match alloc_block t with
          | None -> None
          | Some b ->
              Buffer_cache.modify t.bc inode.indirect (fun data ->
                  Bytes.set_int32_le data (4 * slot) (Int32.of_int b));
              Some b
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* File contents                                                       *)

let read t ~ino ~off ~len : bytes Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode ->
      if off < 0 || len < 0 then Error Errno.EINVAL
      else begin
        let len = max 0 (min len (inode.size - off)) in
        let out = Bytes.create len in
        let pos = ref 0 in
        while !pos < len do
          let file_off = off + !pos in
          let logical = file_off / block_bytes in
          let block_off = file_off mod block_bytes in
          let chunk = min (len - !pos) (block_bytes - block_off) in
          (match block_of t inode ~logical ~alloc:false with
          | None -> Bytes.fill out !pos chunk '\000' (* hole *)
          | Some b ->
              Buffer_cache.view t.bc b (fun data ->
                  Bytes.blit data block_off out !pos chunk);
              charge t (max 1 (chunk / 64)));
          pos := !pos + chunk
        done;
        Ok out
      end

let write t ~ino ~off src : int Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode ->
      if off < 0 then Error Errno.EINVAL
      else begin
        let len = Bytes.length src in
        let pos = ref 0 in
        let error = ref None in
        while !pos < len && !error = None do
          let file_off = off + !pos in
          let logical = file_off / block_bytes in
          let block_off = file_off mod block_bytes in
          let chunk = min (len - !pos) (block_bytes - block_off) in
          (match block_of t inode ~logical ~alloc:true with
          | None -> error := Some Errno.ENOSPC
          | Some b ->
              Buffer_cache.modify t.bc b (fun data ->
                  Bytes.blit src !pos data block_off chunk));
          pos := !pos + chunk
        done;
        match !error with
        | Some e ->
            inode.size <- max inode.size (off + !pos);
            write_inode t ino (Some inode);
            Error e
        | None ->
            inode.size <- max inode.size (off + len);
            write_inode t ino (Some inode);
            Ok len
      end

let truncate t ~ino ~len : unit Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode ->
      if len > inode.size then Error Errno.EINVAL
      else begin
        let keep_blocks = (len + block_bytes - 1) / block_bytes in
        (* Free direct blocks beyond the kept range. *)
        for i = 0 to direct_count - 1 do
          if i >= keep_blocks && inode.direct.(i) <> 0 then begin
            free_block t inode.direct.(i);
            inode.direct.(i) <- 0
          end
        done;
        (* Free indirect-mapped blocks beyond the kept range. *)
        if inode.indirect <> 0 then begin
          let still_used = ref false in
          Buffer_cache.modify t.bc inode.indirect (fun data ->
              for slot = 0 to indirect_entries - 1 do
                let logical = direct_count + slot in
                let b = Int32.to_int (Bytes.get_int32_le data (4 * slot)) in
                if b <> 0 then
                  if logical >= keep_blocks then begin
                    free_block t b;
                    Bytes.set_int32_le data (4 * slot) 0l
                  end
                  else still_used := true
              done);
          if not !still_used then begin
            free_block t inode.indirect;
            inode.indirect <- 0
          end
        end;
        inode.size <- len;
        write_inode t ino (Some inode);
        Ok ()
      end

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)

let per_block = block_bytes / dirent_size

(* Fold [f] over a directory's slots in order, reading each block in
   place inside the cache view (a real kernel walks the buffer; it does
   not copy the block).  [f acc ~slot ~ino data off] sees one slot: its
   index, its inode (0 = free) and its name, NUL-padded, at [off] in
   [data].  The modelled cost is 8 kernel memory operations per slot,
   charged once per block.  A hole block reads as one free slot, its
   first. *)
let fold_dir t inode init f =
  let nents = inode.size / dirent_size in
  let acc = ref init in
  for blk = 0 to ((inode.size + block_bytes - 1) / block_bytes) - 1 do
    let first = blk * per_block in
    match block_of t inode ~logical:blk ~alloc:false with
    | None -> acc := f !acc ~slot:first ~ino:0 Bytes.empty 0
    | Some b ->
        Buffer_cache.view t.bc b (fun data ->
            let last = min nents (first + per_block) - 1 in
            charge t (8 * (last - first + 1));
            for slot = first to last do
              let off = (slot - first) * dirent_size in
              let ino = Int32.to_int (Bytes.get_int32_le data off) in
              acc := f !acc ~slot ~ino data (off + 4)
            done)
  done;
  !acc

(* Whether the NUL-padded name at [off] in [data] is [name]. *)
let name_is data off name =
  let len = String.length name in
  let rec same i = i = len || (Bytes.get data (off + i) = name.[i] && same (i + 1)) in
  len <= name_max && (len = name_max || Bytes.get data (off + len) = '\000') && same 0

let name_at data off =
  let nul = Option.value (Bytes.index_from_opt data off '\000') ~default:max_int in
  Bytes.sub_string data off (min name_max (nul - off))

(* The live entry called [name], as [(slot, ino)]. *)
let find_entry t inode name =
  fold_dir t inode None (fun found ~slot ~ino data off ->
      match found with
      | None when ino <> 0 && name_is data off name -> Some (slot, ino)
      | _ -> found)

(* Split an absolute path into components.  A NUL byte is refused: names
   are stored NUL-padded, so it would end the stored name early. *)
let components path =
  if String.length path = 0 || path.[0] <> '/' || String.contains path '\000' then None
  else Some (List.filter (fun s -> s <> "") (String.split_on_char '/' path))

let rec resolve t ino = function
  | [] -> Ok ino
  | name :: rest -> (
      (* namei: per-component locking, hashing, permission checks. *)
      charge t 300;
      match read_inode t ino with
      | None -> Error Errno.ENOENT
      | Some inode when inode.itype <> Dir -> Error Errno.ENOTDIR
      | Some inode -> (
          match find_entry t inode name with
          | None -> Error Errno.ENOENT
          | Some (_, child) -> resolve t child rest))

let lookup t path =
  match components path with
  | None -> Error Errno.EINVAL
  | Some comps -> resolve t root_ino comps

(* Resolve the parent directory and leaf name of a path. *)
let parent_of t path =
  match components path with
  | None | Some [] -> Error Errno.EINVAL
  | Some comps -> (
      match List.rev comps with
      | leaf :: _ when String.length leaf > name_max -> Error Errno.EINVAL
      | leaf :: rev_dirs ->
          let dirs = List.rev rev_dirs in
          Result.map (fun dir_ino -> (dir_ino, leaf)) (resolve t root_ino dirs)
      | [] -> Error Errno.EINVAL)

let add_entry t dir_ino name target =
  match read_inode t dir_ino with
  | None -> Error Errno.ENOENT
  | Some dir when dir.itype <> Dir -> Error Errno.ENOTDIR
  | Some dir -> (
      match find_entry t dir name with
      | Some _ -> Error Errno.EEXIST
      | None ->
          (* The first free slot, else append. *)
          let free =
            fold_dir t dir None (fun free ~slot ~ino _ _ ->
                match free with None when ino = 0 -> Some slot | _ -> free)
          in
          let entry = Bytes.make dirent_size '\000' in
          Bytes.set_int32_le entry 0 (Int32.of_int target);
          Bytes.blit_string name 0 entry 4 (String.length name);
          let slot = Option.value free ~default:(dir.size / dirent_size) in
          Result.map ignore (write t ~ino:dir_ino ~off:(slot * dirent_size) entry))

let remove_entry t dir_ino name =
  match read_inode t dir_ino with
  | None -> Error Errno.ENOENT
  | Some dir -> (
      match find_entry t dir name with
      | None -> Error Errno.ENOENT
      | Some (slot, target) ->
          let entry = Bytes.make dirent_size '\000' in
          let off = slot * dirent_size in
          Result.map (fun _ -> target) (write t ~ino:dir_ino ~off entry))

let make_node t path itype : int Errno.result =
  charge t 800;
  match parent_of t path with
  | Error e -> Error e
  | Ok (dir_ino, leaf) -> (
      match alloc_inode t itype with
      | None -> Error Errno.ENOSPC
      | Some ino -> (
          match add_entry t dir_ino leaf ino with
          | Ok () -> Ok ino
          | Error e ->
              bitmap_set t inode_bitmap_block ino false;
              write_inode t ino None;
              Error e))

let create t path = make_node t path Reg
let mkdir t path = make_node t path Dir

let free_inode_storage t ino inode =
  Array.iter (fun b -> if b <> 0 then free_block t b) inode.direct;
  if inode.indirect <> 0 then begin
    Buffer_cache.modify t.bc inode.indirect (fun data ->
        for slot = 0 to indirect_entries - 1 do
          let b = Int32.to_int (Bytes.get_int32_le data (4 * slot)) in
          if b <> 0 then free_block t b
        done);
    free_block t inode.indirect
  end;
  bitmap_set t inode_bitmap_block ino false;
  write_inode t ino None

let unlink t path : unit Errno.result =
  charge t 800;
  match parent_of t path with
  | Error e -> Error e
  | Ok (dir_ino, leaf) -> (
      match lookup t path with
      | Error e -> Error e
      | Ok ino -> (
          match read_inode t ino with
          | None -> Error Errno.ENOENT
          | Some inode when inode.itype = Dir -> Error Errno.EISDIR
          | Some inode -> (
              match remove_entry t dir_ino leaf with
              | Error e -> Error e
              | Ok _ ->
                  free_inode_storage t ino inode;
                  Ok ())))

let rmdir t path : unit Errno.result =
  match parent_of t path with
  | Error e -> Error e
  | Ok (dir_ino, leaf) -> (
      match lookup t path with
      | Error e -> Error e
      | Ok ino -> (
          match read_inode t ino with
          | None -> Error Errno.ENOENT
          | Some inode when inode.itype <> Dir -> Error Errno.ENOTDIR
          | Some inode ->
              let empty = fold_dir t inode true (fun e ~slot:_ ~ino _ _ -> e && ino = 0) in
              if not empty then Error Errno.ENOTEMPTY
              else begin
                match remove_entry t dir_ino leaf with
                | Error e -> Error e
                | Ok _ ->
                    free_inode_storage t ino inode;
                    Ok ()
              end))

(* [a] names a proper ancestor of [b]: its components are a strict
   prefix of [b]'s.  Names are literal, so no component walk is
   needed. *)
let strictly_under a b =
  match (components a, components b) with
  | Some a, Some b ->
      let rec prefix = function
        | [], _ :: _ -> true
        | x :: a, y :: b -> String.equal x y && prefix (a, b)
        | _ -> false
      in
      prefix (a, b)
  | _ -> false

let rename t ~src ~dst : unit Errno.result =
  charge t 600;
  match (parent_of t src, parent_of t dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (src_dir, src_leaf), Ok (dst_dir, dst_leaf) -> (
      match lookup t src with
      | Error e -> Error e
      | Ok _ when src_dir = dst_dir && String.equal src_leaf dst_leaf -> Ok ()
      | Ok ino when strictly_under src dst -> (
          (* A directory cannot move into its own subtree; a file has
             none, so the destination's parent is not a directory. *)
          match read_inode t ino with
          | Some inode when inode.itype = Dir -> Error Errno.EINVAL
          | _ -> Error Errno.ENOTDIR)
      | Ok ino -> (
          (* Replace an existing regular file at the destination. *)
          (match lookup t dst with
          | Ok existing -> (
              match read_inode t existing with
              | Some inode when inode.itype = Reg ->
                  (match remove_entry t dst_dir dst_leaf with
                  | Ok _ -> free_inode_storage t existing inode
                  | Error _ -> ())
              | Some _ | None -> ())
          | Error _ -> ());
          match add_entry t dst_dir dst_leaf ino with
          | Error e -> Error e
          | Ok () -> (
              match remove_entry t src_dir src_leaf with
              | Ok _ -> Ok ()
              | Error e -> Error e)))

let readdir t ~ino : (string * int) list Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode when inode.itype <> Dir -> Error Errno.ENOTDIR
  | Some inode ->
      Ok
        (List.rev
           (fold_dir t inode [] (fun acc ~slot:_ ~ino data off ->
                if ino = 0 then acc else (name_at data off, ino) :: acc)))

let stat t ~ino : stat Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode -> Ok { ino; itype = inode.itype; size = inode.size; nlink = inode.nlink }

(* ------------------------------------------------------------------ *)
(* Formatting and mounting                                             *)

let mkfs ?(charge_work = fun _ -> ()) bc =
  let t = { bc; charge_work } in
  (* Clear metadata blocks. *)
  for b = 0 to data_start - 1 do
    Buffer_cache.write bc b Bytes.empty
  done;
  let sb = Bytes.create 8 in
  Bytes.set_int64_le sb 0 magic;
  Buffer_cache.write bc 0 sb;
  (* Reserve inode 0 and create the root directory as inode 1. *)
  bitmap_set t inode_bitmap_block 0 true;
  bitmap_set t inode_bitmap_block root_ino true;
  write_inode t root_ino
    (Some { itype = Dir; nlink = 2; size = 0; indirect = 0; direct = Array.make direct_count 0 });
  t

let mount ?(charge_work = fun _ -> ()) bc =
  let sb = Buffer_cache.read bc 0 in
  if Bytes.get_int64_le sb 0 <> magic then Error "Diskfs.mount: bad superblock magic"
  else Ok { bc; charge_work }

let sync t = Buffer_cache.sync t.bc
