"""Self-supervised pseudo-label refinement on a desk-scale embodied simulator.

An agent explores procedurally generated rooms, accumulates noisy multi-view
detections into a sparse semantic voxel map, resolves label conflicts by
consensus, reprojects the consistent instances onto every frame, and trains
and evaluates against the resulting pseudo-labels.
"""

from .scene import (Box, CameraIntrinsics, FrameObservation, ObjectInstance,
                    Pose, SceneParams, SceneSpec, generate_scene,
                    pixel_to_world, render_frame, world_to_pixel)
from .detector import (Detection, DetectionSet, NoiseModel, mask_bbox,
                       simulate_detections, softmax)
from .explore import (Action, AgentState, OccupancyGrid, Trajectory,
                      frontier_goals, next_goal, plan_path, run_episode,
                      step_agent, update_occupancy)
from .consensus import (InstanceRecord, SemanticVoxelMap, accumulate_frame,
                        consistent_logits, extract_instances, finalize_map,
                        resolve_voxels)
from .reproject import (PseudoDataset, PseudoLabel, build_pseudo_dataset,
                        project_instance_masks)
from .losses import (LossValue, TrainConfig, distill_loss, head_loss,
                     toy_finetune, triplet_loss)
from .evaluate import EvalReport, average_precision, evaluate_pseudo_labels, iou
from .pipeline import RunConfig, load_run, run_grid, run_pipeline

__version__ = "0.1.0"
