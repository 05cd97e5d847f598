"""Self-contained flamegraph HTML from collapsed-stack samples.

The repo's hard constraint is *no third-party runtime dependencies*, so
this renders the folded-stack trie straight into one HTML file — inline
CSS/JS, absolutely positioned divs, click-to-zoom — instead of shelling
out to ``flamegraph.pl`` or speedscope.  Open the file in any browser;
hover shows ``frame — samples (percent)``, clicking a frame re-roots
the view on it.

Input is the profiler's folded mapping (``"a;b;c" -> count``, root
first), the same data :meth:`~repro.obs.sampler.Sampler.dump_collapsed`
writes, so any external flamegraph tool works on the ``.collapsed``
file while this module covers the zero-dependency path.
"""

from __future__ import annotations

import html
import json
from typing import Dict

__all__ = ["flamegraph_html"]


def _build_tree(folded: Dict[str, int]) -> Dict:
    """Merge folded stacks into a trie: name -> {value, children}."""
    root = {"name": "all", "value": 0, "children": {}}
    for stack, count in folded.items():
        root["value"] += count
        node = root
        for frame in stack.split(";"):
            child = node["children"].get(frame)
            if child is None:
                child = node["children"][frame] = {
                    "name": frame, "value": 0, "children": {},
                }
            child["value"] += count
            node = child
    return root


def _to_jsonable(node: Dict) -> Dict:
    return {
        "name": node["name"],
        "value": node["value"],
        "children": [
            _to_jsonable(c)
            for _, c in sorted(node["children"].items(), key=lambda kv: -kv[1]["value"])
        ],
    }


_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
  body {{ font: 12px/1.4 -apple-system, "Segoe UI", sans-serif; margin: 16px; }}
  #chart {{ position: relative; width: 100%; }}
  .frame {{
    position: absolute; box-sizing: border-box; height: 17px;
    overflow: hidden; white-space: nowrap; text-overflow: ellipsis;
    border: 1px solid rgba(255,255,255,.6); border-radius: 2px;
    padding: 0 3px; cursor: pointer; font-size: 11px; color: #222;
  }}
  #status {{ margin-top: 8px; color: #555; min-height: 1.2em; }}
  h1 {{ font-size: 16px; }}
</style>
</head>
<body>
<h1>{title}</h1>
<p>{total} samples &middot; click a frame to zoom, click the root to reset</p>
<div id="chart"></div>
<div id="status"></div>
<script>
const ROOT = {data};
const chart = document.getElementById("chart");
const status = document.getElementById("status");
const ROW = 18;
function color(name) {{
  let h = 0;
  for (let i = 0; i < name.length; i++) h = (h * 31 + name.charCodeAt(i)) >>> 0;
  return `hsl(${{20 + (h % 40)}}, ${{60 + (h >> 8) % 30}}%, ${{52 + (h >> 16) % 20}}%)`;
}}
function render(focus) {{
  chart.innerHTML = "";
  const width = chart.clientWidth || 960;
  let depth = 0;
  function walk(node, x, scale, level) {{
    const w = node.value * scale;
    if (w < 0.5) return;
    depth = Math.max(depth, level);
    const div = document.createElement("div");
    div.className = "frame";
    div.style.left = x + "px";
    div.style.top = (level * ROW) + "px";
    div.style.width = Math.max(w - 1, 1) + "px";
    div.style.background = color(node.name);
    div.textContent = node.name;
    const pct = (100 * node.value / ROOT.value).toFixed(1);
    div.title = `${{node.name}} — ${{node.value}} samples (${{pct}}%)`;
    div.onmouseenter = () => {{ status.textContent = div.title; }};
    div.onclick = (ev) => {{ ev.stopPropagation(); render(node === focus ? ROOT : node); }};
    chart.appendChild(div);
    let cx = x;
    for (const child of node.children) {{
      walk(child, cx, scale, level + 1);
      cx += child.value * scale;
    }}
  }}
  walk(focus, 0, width / focus.value, 0);
  chart.style.height = ((depth + 1) * ROW + 4) + "px";
}}
render(ROOT);
window.addEventListener("resize", () => render(ROOT));
</script>
</body>
</html>
"""


def flamegraph_html(folded: Dict[str, int], title: str = "repro profile") -> str:
    """Render *folded* stacks into one dependency-free HTML document."""
    tree = _to_jsonable(_build_tree(folded))
    return _TEMPLATE.format(
        title=html.escape(title),
        total=tree["value"],
        data=json.dumps(tree),
    )
